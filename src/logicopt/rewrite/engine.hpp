// engine.hpp — switching-power-driven datapath rewrite engine.
//
// Couples the exact rewrite rules of rules.hpp to the cone-scoped
// incremental power oracle (power/incremental.hpp): every candidate is
// applied inside its own (nested) undo epoch, re-estimated over just its
// dirty fanout cone, and kept only when total switching power strictly
// drops — losers are rolled back through the journal and the estimator's
// snapshot in O(edit), never O(circuit).  This is the survey's
// "power-driven logic restructuring" loop made concrete: the cost oracle
// is always the power of the *current* circuit, re-scored after every kept
// mutation, so rewrite A flipping the profitability of rewrite B is
// handled by construction (no stale-activity scoring).
//
// Soundness: the rules are exact identities, and the engine additionally
// proves every kept instance against the oracle's cached stimulus — the
// primary-output stream digest (IncrementalAnalyzer::outputs_digest) must
// be unchanged after the candidate's cone re-simulation, which is the
// full-circuit differential check restricted to where a mismatch can show.
// RewriteOptions::verify_full layers the original whole-netlist
// interpreter trace on top (the rule-soundness fuzzer runs that mode).  A
// proof failure rolls the candidate back and counts
// RewriteResult::unsound, so a rule bug can cost an optimization but never
// correctness.
//
// Determinism: the engine owns a private ZeroDelay analyzer (seeded from
// RewriteOptions, independent of the caller's estimate mode, sim engine,
// lane width or thread count — ZeroDelay statistics are bit-identical
// across all of those), so the kept-rewrite sequence is a pure function of
// the input netlist and options.  Candidates are judged by footprint-local
// power deltas (score_delta over dirty_footprint, below).
//
// The loop is serial.  Speculative scoring on worker threads was measured
// at 0.43x the serial loop at 4 workers on a 4-vCPU host (about as many
// conflicts as keeps, and each rewrite scores in microseconds).

#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "logicopt/rewrite/rules.hpp"
#include "power/activity.hpp"

namespace lps::logicopt::rewrite {

namespace detail {
/// Chaos hooks (tests only; 0 disables, counts are consumed):
/// pretend the next `n` differential checks fail, exercising the unsound
/// rollback path without planting a genuinely broken rule;
void force_unsound_rewrites(int n);
/// throw std::runtime_error out of the engine after the next `n`-th
/// candidate epoch opens — deliberately *without* unwinding the engine's
/// own journal epochs, reproducing the "transform dies with an inner epoch
/// open" failure mode that flow-stage rollback accounting must survive.
void force_throw_on_candidate(int n);
}  // namespace detail

struct RewriteOptions {
  MatchOptions rules;        // which rule families to enumerate
  /// Full-rule match/apply sweeps until a fixpoint.  Constant folding runs
  /// first as its own fixpoint prephase (fold-only queues, same scoring
  /// and proof per candidate) so const propagation doesn't consume these.
  int max_rounds = 4;
  std::size_t max_candidates = 4096;  // per-round queue bound (see `capped`)
  /// Scoring stimulus for the private ZeroDelay oracle.
  std::size_t sim_vectors = 4096;
  std::uint64_t seed = 7;
  /// Differential-proof stimulus (interpreter engine) per kept candidate —
  /// only simulated when verify_full is set; the default proof is the
  /// cone-scoped PO-stream digest over the oracle's own stimulus.
  std::size_t verify_frames = 256;
  std::uint64_t verify_seed = 17;
  /// Keep a candidate only when it saves strictly more than this (watts).
  double min_gain_w = 0.0;
  /// Re-prove every kept candidate with the whole-netlist interpreter
  /// trace in addition to the PO-stream digest (belt-and-braces mode; the
  /// rule-soundness fuzzer runs with this on).
  bool verify_full = false;
  /// Unused: the engine always scores serially.  Kept only so existing
  /// callers that assign it still compile; it changes nothing.
  int workers = 0;
};

struct RewriteResult {
  std::size_t candidates_seen = 0;    // matches enumerated over all rounds
  std::size_t candidates_scored = 0;  // probes through the power oracle
  std::size_t kept = 0;               // applied and committed
  std::size_t reverted = 0;           // rolled back (loser or unsound)
  std::size_t stale = 0;              // invalidated by earlier keeps (no-op)
  std::size_t unsound = 0;            // differential-proof failures (rolled
                                      // back; also logicopt.rewrite.unsound)
  /// True when a round's candidate queue was truncated at max_candidates —
  /// surfaced (never silent): also counted as logicopt.rewrite.capped.
  bool capped = false;
  double power_before_w = 0.0;  // oracle estimate at entry
  double power_after_w = 0.0;   // oracle estimate at exit
  std::size_t gates_before = 0;
  std::size_t gates_after = 0;
};

/// Footprint-local power delta between two analyses of the same oracle
/// stimulus: the sum, in ascending `footprint` order, of node_power_w[after]
/// − node_power_w[before] (ids beyond either vector count as zero), plus
/// the clock-tree difference.
double score_delta(const power::Analysis& before, const power::Analysis& after,
                   std::span<const NodeId> footprint);

/// Sorted unique dirty footprint of a journaled mutation: the touched ids
/// plus the transitive fanout cone of its value roots (through registers),
/// evaluated on the mutated netlist.
std::vector<NodeId> dirty_footprint(const Netlist& net,
                                    const Netlist::TouchedNodes& touched);

/// Run the rewrite loop in place.  Mutations nest correctly inside a
/// caller's active undo epoch (each candidate runs in an inner epoch).
RewriteResult rewrite_datapath(Netlist& net, const RewriteOptions& opt = {});

}  // namespace lps::logicopt::rewrite
