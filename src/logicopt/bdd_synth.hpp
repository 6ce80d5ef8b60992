// bdd_synth.hpp — per-cone BDD→MUX extraction ("hybrid" synthesis).
//
// §III-A: SOP minimization and factoring are one family of multi-level
// restructurings; BDD-based synthesis is the other.  A reduced ordered BDD
// is itself a multiplexer network — one MUX per internal node, selector =
// the node's variable — and for reconvergent/arithmetic cones that network
// is often both smaller and lower-switching than the factored SOP form,
// because the canonical DAG shares every common subfunction by
// construction.  The survey's prescription is *hybrid* extraction: try the
// BDD form per cone and keep whichever representation wins.
//
// This engine does exactly that, on the synthesis-scale manager
// (bdd/bdd.hpp):
//
//   1. enumerate extraction roots (primary outputs and register D/EN
//      fanins) and take each root's transitive fanin cone, skipping cones
//      whose support exceeds the input cap;
//   2. build the cone's function in a fresh per-cone manager (complement
//      edges halve arithmetic cones; auto-GC bounds the build; the
//      per-gate scaffolding is dropped before reordering);
//   3. sift with per-variable switching-activity weights — high-activity
//      variables sink toward the leaves, where their toggles drive few MUX
//      selectors (bdd::Manager::SiftOptions::weights);
//   4. lower the BDD to a MUX/INV network (bdd::synthesize_bdd; complement
//      edges become one shared inverter per polarity) and splice it in
//      place of the root inside a nested undo epoch;
//   5. score the candidate through the cone-scoped incremental power
//      oracle (power/incremental.hpp) and keep it only when total
//      switching power strictly drops — losers roll back in O(edit).
//
// Soundness: every kept cone is proven twice — the oracle's primary-output
// stream digest (IncrementalAnalyzer::outputs_digest) must be unchanged
// after the cone re-simulation, and a whole-netlist interpreter trace
// (sim::functional_trace over verify_frames) must match the reference
// trace.  The reference is taken once per run, before the first candidate:
// a cone is kept only when the circuit's trace still equals it, so it stays
// valid for every later candidate.  The digest proof runs on every
// candidate; the trace proof only on a power winner, since a loser rolls
// back whatever its trace says.  A proof failure rolls the candidate back
// and counts `unsound` (digest failures on any candidate, trace failures on
// winners); a defect can cost an optimization, never correctness.
//
// Determinism: the engine is sequential and owns a private ZeroDelay
// oracle seeded from the options, so the kept-cone sequence is a pure
// function of the input netlist and options — independent of lane width or
// thread count.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "bdd/bdd.hpp"
#include "netlist/netlist.hpp"

namespace lps::logicopt {

struct BddSynthOptions {
  /// Support cap: cones with more source inputs are skipped (counted in
  /// `cones_capped`, never silent).  0 = the LPS_BDD_SYNTH_MAX_INPUTS
  /// environment default (18).
  unsigned max_inputs = 0;
  /// Per-cone manager node budget; a cone that exceeds it while building
  /// or sifting is skipped (counted in `cones_limited`).
  std::size_t node_limit = std::size_t{1} << 20;
  /// Activity-weighted sifting before extraction: 1 = on, 0 = off,
  /// -1 = the LPS_BDD_SYNTH_SIFT environment default (on).
  int sift = -1;
  /// Sifting bail-out: abandon a variable's walk past best × growth.
  double sift_growth = 2.0;
  /// Stimulus for the private ZeroDelay scoring oracle.
  std::size_t sim_vectors = 4096;
  std::uint64_t seed = 7;
  /// Keep a cone only when it saves strictly more than this (watts).
  double min_gain_w = 0.0;
  /// Interpreter re-proof stimulus for each power-winning candidate (0
  /// disables the trace proof; the PO-stream digest proof always runs).
  std::size_t verify_frames = 256;
  std::uint64_t verify_seed = 17;
};

struct BddSynthResult {
  std::size_t cones_examined = 0;
  std::size_t cones_capped = 0;   // support exceeded max_inputs
  std::size_t cones_limited = 0;  // per-cone manager hit its node budget
  std::size_t kept = 0;           // spliced in and committed
  std::size_t reverted = 0;       // legal but not a power win; rolled back
  std::size_t unsound = 0;        // proof failures (rolled back; also the
                                  // logicopt.bdd_synth.unsound metric)
  /// Max live-node watermark over the per-cone managers (complement edges
  /// + GC at work; what experiment E27's peak_live_ratio band audits).
  std::size_t peak_live_nodes = 0;
  double power_before_w = 0.0;  // oracle estimate at entry
  double power_after_w = 0.0;   // oracle estimate at exit
  std::size_t gates_before = 0;
  std::size_t gates_after = 0;
  /// One-line diagnostic describing any cap that was hit; empty otherwise.
  std::string note;
};

/// One extraction cone: the root's transitive fanin down to primary inputs
/// and register outputs.
struct BddCone {
  NodeId root = kNoNode;
  std::vector<NodeId> gates;    // cone logic in topological (post) order
  std::vector<NodeId> sources;  // fanin-first DFS order; BDD variable v
                                // is sources[v]
};

/// Extraction roots in the engine's order: primary outputs, then register
/// D/EN fanins — logic gates only, deduplicated.
std::vector<NodeId> bdd_cone_roots(const Netlist& net);
BddCone extract_bdd_cone(const Netlist& net, NodeId root);
/// Build c's root function in m (m.num_vars() >= c.sources.size()) and
/// return it rooted, with the per-gate scaffolding collected: the manager
/// the engine sifts.  Throws bdd::NodeLimitExceeded past m's budget.
bdd::Ref build_bdd_cone(bdd::Manager& m, const Netlist& net,
                        const BddCone& c);

/// Run hybrid BDD→MUX extraction in place.  Mutations nest correctly
/// inside a caller's active undo epoch (each cone runs in an inner epoch).
BddSynthResult synthesize_bdd_cones(Netlist& net,
                                    const BddSynthOptions& opt = {});

}  // namespace lps::logicopt
