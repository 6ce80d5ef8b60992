// common.hpp — shared pieces of the repository benchmark: clocks, sample
// statistics, the span tracer, the workload definitions and the interfaces
// of the two measured phases (flow_phase.cpp, session_phase.cpp).
//
// The benchmark calls the library only through its public headers and
// records its own spans around those calls; nothing here reaches into the
// library's internals.

#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/flows.hpp"
#include "netlist/netlist.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median of a sample (0 for an empty sample).
double median(std::vector<double> v);
/// Nearest-rank quantile, q in [0, 1] (0 for an empty sample).
double quantile(std::vector<double> v, double q);
/// Geometric mean of positive values (0 for an empty sample).
double geomean(const std::vector<double>& v);

// ---- span tracer ----------------------------------------------------------

/// In-memory span recorder.  Spans nest by scope; each records its parent,
/// so a layer's self time is its duration minus the time its child spans
/// cover.  Spans are written out once, when the run ends.
class Tracer {
 public:
  Tracer() : t0_(Clock::now()) {}

  class Scope {
   public:
    Scope(Tracer& t, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    std::size_t index_;
  };

  /// Total self time per span name, in milliseconds.
  std::map<std::string, double> self_ms() const;
  /// Number of spans recorded.
  std::size_t size() const { return spans_.size(); }
  /// Cost of recording one span, in microseconds: the median over a few
  /// batches of empty scopes opened and closed on a scratch tracer.
  static double span_cost_us();
  /// Write every span as a Chrome trace-event JSON array.  Returns false on
  /// an I/O failure.
  bool write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    long parent = -1;
    double start_us = 0.0;
    double end_us = 0.0;
    double child_us = 0.0;
  };
  double now_us() const;

  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

// ---- workloads ------------------------------------------------------------

struct Circuit {
  std::string name;
  lps::Netlist net;
  bool sequential = false;  // run through optimize_sequential
};

/// One workload's inputs: the netlist set the flow runs over and the
/// netlist each session client edits.
struct Workload {
  std::string name;
  std::vector<Circuit> circuits;
  lps::Netlist session_net;
};

/// Names accepted by --workload.
const std::vector<std::string>& workload_names();
/// Generate a workload's inputs; throws std::invalid_argument on an
/// unknown name.  The netlist generators are pure functions of their
/// parameters and the flow runs on its default stimulus, so the flow half
/// of a run is the same for every seed; the run seed drives the independent
/// check's stimulus and the session loop (edits, request order, analyzer
/// seed).
Workload make_workload(const std::string& name);

// ---- flow phase (flow_phase.cpp) -----------------------------------------

/// Result quality of one pass over a netlist set: geometric means over the
/// netlists of final-kept ÷ input power, gates and critical delay.
struct Quality {
  double power = 0.0;
  double gates = 0.0;
  double delay = 0.0;
  bool operator==(const Quality&) const = default;
};

/// Counters read from the library's metrics registry after each flow and
/// summed over the set.
struct RegistryCounts {
  double fallback_full = 0, node_evals = 0, node_evals_full = 0;
  double bdd_nodes = 0, ite_hits = 0, ite_lookups = 0;
  double rewrite_kept = 0, rewrite_tried = 0;
  double bdd_synth_kept = 0, bdd_synth_tried = 0;
  double stages_kept = 0, stages_tried = 0;
  double event_vectors = 0;
  double rollbacks = 0;  // sum of StageReport::rollbacks
};

/// One pass of the flow over every netlist of a workload.
struct FlowPass {
  std::vector<double> wall_s;           // per circuit: the flow call alone
  std::vector<lps::core::FlowResult> results;  // per circuit; empty on throw
  std::vector<std::string> errors;      // per circuit; non-empty = threw
  RegistryCounts counts;                // filled when asked to
  Quality quality() const;
  /// Per-circuit structural hash of the output (0 for a thrown flow).
  std::vector<std::uint64_t> hashes() const;
};

/// The flow configuration every pass uses: Timed estimates, 1024 vectors,
/// the library's default stimulus seed, `workers` speculation workers.
lps::core::FlowOptions flow_options(int workers);

/// Run the flow once over the workload's netlist set.  With `counts` set,
/// the metrics registry is reset before and read after each flow.
FlowPass run_flow_pass(const Workload& wl, const lps::core::FlowOptions& fo,
                       bool counts);

/// Independent output check of every flow result against its input
/// (exhaustive interpreter simulation up to 16 inputs, else seeded random
/// simulation disjoint from the flow's own plus a BDD proof where it fits).
/// Returns the number of netlists that failed, flows that threw included;
/// each failure is described in `notes`.
std::size_t check_outputs(const Workload& wl, const FlowPass& pass,
                          std::uint64_t seed, std::vector<std::string>& notes);

/// Replay the flow's stage loop through the public stage entry points under
/// spans, for every netlist, using the stage list `pass` recorded.  Returns
/// the number of netlists whose replay diverged from the flow (stage
/// outcome, stage power or final structural hash), each described in
/// `notes`.  Throws std::runtime_error on a stage it does not know.
std::size_t replay_traced(const Workload& wl, const FlowPass& pass,
                          const lps::core::FlowOptions& fo, Tracer& tracer,
                          std::vector<std::string>& notes);

// ---- session phase (session_phase.cpp) -----------------------------------

enum Verb { kMutate, kEstimateCached, kEstimateTimed, kRollback, kLoad, kStat,
            kNumVerbs };
const char* verb_name(Verb v);

struct SessionStats {
  std::array<std::vector<double>, kNumVerbs> latency_ms;
  std::size_t sent = 0;
  std::size_t failed = 0;      // ok:false replies + reference mismatches
  std::size_t checked = 0;     // replies compared against the mirror
  double wall_s = 0.0;
  std::vector<double> done_s;  // completion time of each request, from loop start
  double resim_nodes = 0.0;    // summed over mutate replies
  std::size_t resim_replies = 0;
  double estimates_full = 0.0;    // summed from 'stat' before each reload
  double estimates_cached = 0.0;  // likewise
  std::vector<std::string> notes;
  std::vector<double> all_latency_ms() const;
  /// Completed requests per second: the median over the loop's whole
  /// one-second windows, all clients together.
  double throughput() const;
};

/// The closed-loop edit-session load: `clients` threads, each on its own
/// session of `net`, driving one in-process service::Service through
/// dispatch().
class SessionLoad {
 public:
  SessionLoad(const lps::Netlist& net, std::uint64_t seed, int clients);
  ~SessionLoad();
  SessionLoad(const SessionLoad&) = delete;
  SessionLoad& operator=(const SessionLoad&) = delete;

  /// Start the service and load every client's session (set-up work).
  void start();
  /// Run the loop for `seconds` and collect its statistics.
  SessionStats run(double seconds);
  /// Check the replies `run` sampled against the client-side mirrors,
  /// adding every disagreement to `stats.failed` and `stats.notes`.
  void check(SessionStats& stats);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace perfbench
