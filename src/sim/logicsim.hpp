// logicsim.hpp — 64-way bit-parallel zero-delay logic simulation.
//
// Used for (a) functional equivalence checking of every optimization pass,
// (b) exact zero-delay switching-activity measurement (§I Eqn. 1 factor N),
// and (c) signal/transition probability measurement under arbitrary input
// statistics.  Each std::uint64_t word carries 64 independent patterns.
//
// Monte Carlo drivers shard their frame stream across the shared thread
// pool (core/parallel.hpp).  The decomposition and per-shard seeds depend
// only on the workload, and per-shard counts merge associatively in shard
// order, so results are bit-identical at any thread count.  Sequential
// netlists carry register state across frames and therefore always run as
// one serial shard (preserving the single-trajectory semantics).

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/parallel.hpp"
#include "netlist/netlist.hpp"

namespace lps::sim {

/// One simulation frame: value word per node (64 parallel patterns).
using Frame = std::vector<std::uint64_t>;

/// Precomputed evaluation schedule for one cone of the network: the cone's
/// logic gates in topological order plus its registers.  Built once per
/// dirty set by LogicSim::cone_schedule() and replayed over every cached
/// frame by eval_cone_into() — the inner loop of incremental power
/// re-estimation (power/incremental.hpp).
struct ConeSchedule {
  std::vector<NodeId> gates;  // live non-source, non-Dff cone nodes, topo order
  std::vector<NodeId> dffs;   // live cone registers (state stepped by caller)
  /// Live cone nodes whose per-frame values must be (re)computed: gates +
  /// dffs.  Primary inputs are excluded — their value stream is fixed by
  /// the seed and input position, never by netlist edits.
  std::size_t resim_nodes() const { return gates.size() + dffs.size(); }
};

/// Zero-delay combinational evaluator bound to one netlist.
class LogicSim {
 public:
  explicit LogicSim(const Netlist& net);

  const Netlist& net() const { return *net_; }

  /// Evaluate the full network for one frame of PI values; `pi_words[i]`
  /// corresponds to net.inputs()[i].  `dff_words` supplies register outputs
  /// (empty = use reset values).  Returns a per-node value frame.
  Frame eval(std::span<const std::uint64_t> pi_words,
             std::span<const std::uint64_t> dff_words = {}) const;

  /// Allocation-free variant for hot loops: evaluates into `f`, reusing its
  /// capacity across frames.
  void eval_into(Frame& f, std::span<const std::uint64_t> pi_words,
                 std::span<const std::uint64_t> dff_words = {}) const;

  /// Restrict this netlist's topological order to the nodes set in `mask`
  /// (sized net.size(); dead nodes and primary inputs are dropped).
  ConeSchedule cone_schedule(const std::vector<bool>& mask) const;

  /// Cone-restricted re-evaluation: recompute exactly `sched.gates` (in
  /// order) in place in `f`, reading every fanin from `f` itself.  `f` must
  /// be a full-network frame whose outside-the-cone entries already hold
  /// valid values — the caller supplies PI and register words (including
  /// the cone's registers) before the call.  Evaluating a cone inside a
  /// frame whose complement is up to date yields bit-identical words to a
  /// full eval_into() pass, which is the splice guarantee incremental
  /// power analysis rests on.
  void eval_cone_into(Frame& f, const ConeSchedule& sched) const;

  /// Values at the primary outputs extracted from a frame.
  std::vector<std::uint64_t> outputs_of(const Frame& f) const;
  /// Next-state values (Dff D inputs) extracted from a frame.
  std::vector<std::uint64_t> next_state_of(const Frame& f) const;
  /// Allocation-free variant: writes next-state words into `state` (which
  /// must already hold the current state — load-enabled Dffs read it).
  void next_state_into(const Frame& f,
                       std::vector<std::uint64_t>& state) const;

  const std::vector<NodeId>& order() const { return order_; }

 private:
  const Netlist* net_;
  std::vector<NodeId> order_;
  std::vector<NodeId> dff_list_;
};

/// Statistics accumulated over a (possibly multi-frame) simulation run.
struct ActivityStats {
  std::vector<double> signal_prob;      // P(node == 1)
  std::vector<double> transition_prob;  // E[toggles per cycle], zero-delay
  std::size_t patterns = 0;
};

/// Raw simulation record behind one measure_activity() run, captured so an
/// incremental re-estimator can later re-derive any node's value stream
/// without re-running the untouched part of the network.  Frames are
/// concatenated in shard order (the merge order of the determinism
/// contract); `shard_start[fr]` marks stream seams, across which no toggle
/// is counted.  `ones`/`toggles` are the exact per-node integer counters
/// the ActivityStats doubles are derived from.
struct ActivityTrace {
  std::vector<Frame> frames;     // [frame][node] value words, shard order
  std::vector<char> shard_start;  // per frame: first frame of its shard?
  std::vector<std::uint64_t> ones;     // per node, summed over frames
  std::vector<std::uint64_t> toggles;  // per node, intra-shard seams only
  std::size_t patterns = 0;       // frames * 64
  std::size_t seam_patterns = 0;  // toggle-counted boundaries * 64
};

/// Derive the probability view from a trace's exact counters — the same
/// arithmetic measure_activity() applies, exposed so spliced counters
/// reproduce bit-identical doubles.
ActivityStats stats_from_counts(std::span<const std::uint64_t> ones,
                                std::span<const std::uint64_t> toggles,
                                std::size_t patterns,
                                std::size_t seam_patterns);

/// Run `n_frames` frames of random-vector simulation and measure zero-delay
/// signal and transition probabilities per node.  `pi_one_prob` optionally
/// sets a per-input probability of 1 (default 0.5).  For sequential nets the
/// register state is carried across consecutive patterns within a word
/// stream (one symbolic stream of length 64*n_frames).  Combinational nets
/// shard the stream across the thread pool; results are deterministic in
/// (n_frames, seed) and independent of the thread count.  When `capture` is
/// non-null the full per-frame value matrix and exact counters are recorded
/// into it (one extra frame copy per simulated frame; the statistics are
/// unchanged).  A non-null `cancel` token is polled at shard boundaries and
/// every frame batch within a shard; when it fires the run throws
/// core::CancelledError and all partial counts are discarded — cancellation
/// never yields a truncated (and therefore wrong) statistic.
ActivityStats measure_activity(const Netlist& net, std::size_t n_frames,
                               std::uint64_t seed,
                               std::span<const double> pi_one_prob = {},
                               ActivityTrace* capture = nullptr,
                               const core::CancelToken* cancel = nullptr);

/// The reference model for measure_activity(): the same shard plan, seeds
/// and counting rules, with every shard evaluated gate by gate through
/// LogicSim instead of the compiled tape (sim/compiled.hpp).  Results are
/// bit-identical to measure_activity(); tests and benches call it directly
/// as the differential baseline and the speedup denominator.  Slower, and
/// never used by an optimization or estimation path.
ActivityStats measure_activity_reference(
    const Netlist& net, std::size_t n_frames, std::uint64_t seed,
    std::span<const double> pi_one_prob = {}, ActivityTrace* capture = nullptr,
    const core::CancelToken* cancel = nullptr);

/// Random-vector combinational equivalence check: simulates both networks on
/// the same input stream (inputs matched by position) and compares outputs
/// (matched by position).  Returns true if no mismatch over n_frames*64
/// patterns.  A miscompare is definitive; agreement is probabilistic.
bool equivalent_random(const Netlist& a, const Netlist& b,
                       std::size_t n_frames, std::uint64_t seed);

/// Deterministic functional fingerprint: the digest of a netlist's primary
/// output stream under `n_frames` frames of seeded random stimulus (register
/// state carried exactly as in equivalent_random).  Two netlists with equal
/// traces for the same (n_frames, seed) are equivalent on that stream, up to
/// a ~2^-64 digest collision — this lets the pass manager verify a rewrite
/// against the *pre-pass* circuit without keeping a deep copy of it alive.
struct SimTrace {
  std::size_t n_inputs = 0;
  std::size_t n_outputs = 0;
  std::size_t n_dffs = 0;
  std::size_t frames = 0;
  std::uint64_t seed = 0;
  std::uint64_t digest = 0;
  bool operator==(const SimTrace&) const = default;
};

SimTrace functional_trace(const Netlist& net, std::size_t n_frames,
                          std::uint64_t seed);

}  // namespace lps::sim
