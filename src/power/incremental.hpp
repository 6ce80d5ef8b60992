// incremental.hpp — cone-scoped incremental power re-estimation.
//
// Every optimization loop (core/pass.hpp, core/flows.cpp) is gated on
// re-estimating switching activity after each local rewrite, yet a local
// rewrite touches a handful of nodes while `power::analyze` re-simulates
// the whole netlist.  IncrementalAnalyzer caches the raw simulation record
// of one full baseline run — the per-frame value words and the exact
// integer toggle counters behind the ActivityStats doubles — and after a
// mutation re-evaluates only the transitive fanout cone of the touched
// nodes over the *same* cached frames: same seed, same frame count, same
// shard seams.  The updated per-node counters are spliced into the cached
// totals, and the final report is assembled through the same arithmetic
// `analyze()` uses (power::detail::assemble_zero_delay), so the result is
// bit-identical to a fresh full analysis of the mutated netlist.
//
// Why the splice is exact: primary-input value words depend only on the
// seed and the input's position in `inputs()` (never on netlist edits), so
// everything outside the fanout cone of the touched set replays to the
// very same words — the cached frame already holds them.  Re-evaluating
// the cone in place inside such a frame (LogicSim::eval_cone_into) then
// produces word-for-word what a full re-simulation would, and integer
// popcount splicing introduces no floating-point divergence.
//
// Cache invalidation rule — fall back to a full re-baseline when:
//   * the touched-node report says `all` (no journal, wholesale restore
//     such as compact()/assignment, or a PI-list change that re-maps the
//     input→stream binding);
//   * the analyzer runs in Timed mode (event-driven glitch simulation has
//     no per-frame cache; the fallback is recorded as such in metrics);
//   * there is no baseline yet.
// Fallbacks are full analyze() runs, so correctness never depends on the
// cone path applying.

#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "netlist/netlist.hpp"
#include "power/activity.hpp"
#include "sim/compiled.hpp"
#include "sim/logicsim.hpp"

namespace lps::power {

namespace detail {
/// Chaos hook (tests and the service soak harness): force the next `n`
/// compiled-tape patch attempts inside IncrementalAnalyzer::reanalyze() to
/// throw, exercising the tape→interpreter degradation path
/// (`power.inc.tape_fallback`) without needing a genuinely corrupt tape.
/// Thread-safe; 0 disables.
void force_tape_failures(int n);
}  // namespace detail

class IncrementalAnalyzer {
 public:
  /// What the most recent reanalyze() actually did.
  struct UpdateStats {
    bool full_rebaseline = false;  // fell back to a fresh full analysis
    bool tape_fallback = false;    // compiled tape failed; interpreter used
    std::size_t resim_nodes = 0;   // nodes re-evaluated (cone, or all live)
    std::size_t live_nodes = 0;    // what a full re-analysis evaluates
  };

  /// Binds to `net` and runs the full baseline analysis immediately.  The
  /// netlist must outlive the analyzer.
  explicit IncrementalAnalyzer(const Netlist& net, AnalysisOptions opt = {});

  /// Current estimate — always equal (bit-for-bit) to what
  /// `power::analyze(net, options())` would return for the bound netlist's
  /// current state, provided every mutation was reported via reanalyze().
  const Analysis& analysis() const { return analysis_; }
  const AnalysisOptions& options() const { return opt_; }
  const UpdateStats& last_update() const { return last_; }

  /// Rebind the cancellation token polled by subsequent operations.  The
  /// analyzer usually outlives any single request, so a per-request token
  /// must be bound for the duration of the operation it guards and unbound
  /// (nullptr) before it goes out of scope — never left to dangle.
  void set_cancel(const core::CancelToken* c) { opt_.cancel = c; }

  /// Drop all cached state and re-run the full baseline analysis.  Also
  /// forgets any pending revert_last() snapshot.
  void rebaseline();

  /// Re-estimate after a mutation of the bound netlist.  `touched` must be
  /// captured via Netlist::touched_nodes() *before* the undo epoch is
  /// committed or rolled back (the journal is the source of the set), and
  /// the netlist must currently be in the mutated state.  Returns the
  /// updated analysis().
  ///
  /// Exception safety (strong): if the update throws — a fired
  /// AnalysisOptions::cancel token, or an engine failure — the analyzer has
  /// already restored its caches (trace, counters, compiled tape) to the
  /// pre-call state before the exception escapes.  The caller then only has
  /// to roll back its own netlist mutation to be fully consistent again; it
  /// must NOT call revert_last() for the failed update (there is nothing to
  /// revert — the pending snapshot still belongs to the previous successful
  /// one).  A compiled-tape patch failure alone is not an error: the tape
  /// is dropped, the update transparently degrades to the interpreted
  /// engine (recorded as `power.inc.tape_fallback` and
  /// UpdateStats::tape_fallback), and a fresh tape is compiled on the next
  /// opportunity.
  const Analysis& reanalyze(const Netlist::TouchedNodes& touched);

  /// Restore the cache and analysis to their state before the most recent
  /// reanalyze().  Call after rolling back the corresponding netlist
  /// mutation (Netlist::rollback_undo) so cache and netlist agree again.
  /// One level deep; throws std::logic_error if there is nothing to revert.
  void revert_last();

  /// Candidate-scoring probe for rewrite loops: reanalyze(touched) and
  /// return the resulting total power (watts).  Both reanalyze() success
  /// paths — cone splice and full rebaseline — leave a pending snapshot, so
  /// the caller makes exactly one of two moves next: keep the candidate
  /// (commit its undo epoch; the estimate already matches the netlist) or
  /// reject it (Netlist::rollback_undo, then revert_last()).  Inherits
  /// reanalyze()'s strong exception safety; counted as power.inc.probes.
  double score_candidate(const Netlist::TouchedNodes& touched);

  /// Analysis as it stood before the most recent successful reanalyze()
  /// (the pending snapshot's).  Lets candidate scorers form footprint-local
  /// power deltas without copying the whole Analysis per probe.  Throws
  /// std::logic_error when no update is pending.
  const Analysis& previous_analysis() const;

  /// Digest of the primary-output value streams in the cached trace,
  /// mix64-chained over frames with each output's position folded into
  /// its term — deliberately order-*sensitive*, so it pins the exact
  /// (frame, output) placement of every word, not just the multiset of
  /// values.  The cone-scoped soundness proof: two calls — one before a
  /// mutation is applied, one after reanalyze() — agree iff every output
  /// column is bit-identical across the whole cached stimulus, which is
  /// exactly what the full-circuit differential trace checked (the PO
  /// streams), at O(outputs x frames) instead of O(netlist x frames).
  /// Covers PO-list redirection: the digest reads the *current* outputs()
  /// binding.  Throws std::logic_error when there is no cached trace.
  std::uint64_t outputs_digest() const;

 private:
  struct Snapshot {
    bool full = false;  // snapshot of a whole pre-fallback cache
    // full == true: the entire previous trace (moved, so cost-free).
    sim::ActivityTrace trace;
    bool have_trace = false;
    // full == false: per-node deltas, all ids < old_size.
    std::size_t old_size = 0;
    std::vector<NodeId> resim_ids;  // columns[i] = old frame words of id i
    std::vector<std::vector<std::uint64_t>> columns;
    std::vector<NodeId> count_ids;  // old (ones, toggles) per id
    std::vector<std::pair<std::uint64_t, std::uint64_t>> counts;
    // Tape-patch roots of the reverted mutation (compiled engine):
    // revert_to() re-emits their records from the restored netlist.
    std::vector<NodeId> patched;
    Analysis analysis;
  };

  void run_full();  // (re)build trace_ + analysis_ from scratch
  // Restore trace/counter/analysis state from a cone snapshot (the shared
  // tail of revert_last() and the in-flight exception restore).
  void restore_cone(Snapshot& s);
  // Return a retired snapshot's column buffers to the scratch pool so the
  // next reanalyze() reuses their capacity instead of reallocating
  // per candidate (bounded; excess is freed).
  void recycle(Snapshot& s);

  const Netlist* net_;
  AnalysisOptions opt_;
  Analysis analysis_;
  sim::ActivityTrace trace_;  // ZeroDelay frame/counter cache
  bool have_trace_ = false;
  // Persistent compiled tape (ZeroDelay mode): patched in place from each
  // mutation's touched-node report instead of recompiled, so a pass loop
  // pays O(edit) per candidate, not O(netlist).  Reset when a patch fails;
  // that update then runs on LogicSim and the next one recompiles.
  std::optional<sim::CompiledSim> csim_;
  UpdateStats last_;
  std::optional<Snapshot> snap_;
  // Scratch: retired snapshot columns, reused across candidate probes.
  std::vector<std::vector<std::uint64_t>> col_pool_;
};

}  // namespace lps::power
