// dontcare.hpp — observability-don't-care optimization for low power.
//
// §III-A.1: "The power dissipation of a gate is dependent on the probability
// of the gate evaluating to a 1 or a 0.  This probability can be changed by
// utilizing the don't-care sets" (Shen et al. [38], improved by Iman &
// Pedram [19] which considers the transitive fanout).
//
// We implement the exact-ODC form of the idea: for each node n the care
// set is the set of input assignments on which flipping n changes some
// root (a PO, a Dff D input or a Dff enable) in n's transitive fanout.
// Within the ODC freedom the node is replaced by
//   - a constant, when the care set pins it;
//   - an existing signal g (possibly a fanin), when f_n and f_g agree on the
//     care set and the swap reduces activity-weighted capacitance.
// Each accepted rewrite removes the node's switched capacitance entirely —
// the activity-directed selection among admissible rewrites is exactly the
// power-vs-area distinction [38] draws against classic don't-care methods.
//
// Filter, then prove.  Almost every candidate is inadmissible, and a
// simulation pattern on which flipping n changes a root is a concrete care
// point that proves it: the pass simulates a fixed-seed pattern block on
// the compiled tape, flips n, re-executes only n's fanout cone, and drops
// every replacement that disagrees with n on a care pattern.  Only the
// survivors reach the symbolic check, which decides on canonical BDD
// equality: a replacement agrees with n on n's care set exactly when
// substituting its function for n leaves every root's function unchanged,
// so the check propagates the substitution through the gates it changes
// and stops at the first changed root.  A survivor the BDDs reject yields
// a counterexample (a care point where the replacement differs), which
// joins the pattern block so it filters the next time.  One BDD manager
// serves the whole pass: after a rewrite only the fanout cone of the
// rewired gates is re-derived.
//
// The scan restarts from the top of the new topological order after each
// accepted rewrite.  That keeps the decision sequence, and so the result,
// bit-identical to the BDD-only pass (tests/dontcare_reference.hpp) wherever
// neither outgrows bdd_limit, and it is cheap because a rejected
// candidate costs one cone simulation.  Counters: logicopt.dontcare.
// {candidates, sim_rejected, bdd_checked, cex_added} per candidate, and
// bdd_limited / capped per pass.

#pragma once

#include <cstddef>

#include "netlist/netlist.hpp"

namespace lps::logicopt {

struct DontCareOptions {
  std::size_t bdd_limit = 1u << 22;
  int max_rewrites = 1000;
  // Only consider merge targets whose added fanout activity is below the
  // removed node's activity gain (power-aware filter); with false, any
  // functionally admissible merge is taken (area-style optimization).
  bool power_aware = true;
};

struct DontCareResult {
  int const_replacements = 0;
  int merges = 0;
  std::size_t gates_before = 0;
  std::size_t gates_after = 0;
  /// The symbolic analysis outgrew DontCareOptions::bdd_limit; the pass
  /// stopped there, keeping the rewrites already applied
  /// (logicopt.dontcare.bdd_limited).
  bool bdd_limited = false;
  /// The pass stopped at DontCareOptions::max_rewrites before reaching a
  /// fixpoint (logicopt.dontcare.capped).
  bool capped = false;
};

/// Run ODC-based rewriting until fixpoint, the rewrite cap, or the BDD
/// budget; the result says which (capped / bdd_limited).  Preserves
/// I/O behaviour exactly; callers can verify with bdd::equivalent_bdd.
/// `toggles_per_cycle` supplies per-node activities for the power-aware
/// candidate ranking (e.g. from sim::measure_activity on the same net).
DontCareResult optimize_dontcare(Netlist& net,
                                 const std::vector<double>& toggles_per_cycle,
                                 const DontCareOptions& opt = {});

}  // namespace lps::logicopt
