// dontcare.hpp — observability-don't-care optimization for low power.
//
// §III-A.1: "The power dissipation of a gate is dependent on the probability
// of the gate evaluating to a 1 or a 0.  This probability can be changed by
// utilizing the don't-care sets" (Shen et al. [38], improved by Iman &
// Pedram [19] which considers the transitive fanout).
//
// We implement the exact-ODC form of the idea: for each node n the ODC set
// is computed symbolically (replace n by a fresh BDD variable y and compare
// output cofactors).  Within the ODC freedom the node is replaced by
//   - a constant, when the care set pins it;
//   - an existing signal g (possibly a fanin), when f_n and f_g agree on the
//     care set and the swap reduces activity-weighted capacitance.
// Each accepted rewrite removes the node's switched capacitance entirely —
// the activity-directed selection among admissible rewrites is exactly the
// power-vs-area distinction [38] draws against classic don't-care methods.

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
