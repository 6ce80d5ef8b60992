// resynth.hpp — window-based node resynthesis with local don't-cares.
//
// The §III-A.1 papers operate on *local* functions: Savoj/Brayton/Touati
// [37] extract local don't-cares for network optimization, Shen et al. [38]
// and Iman & Pedram [19] re-express nodes inside that freedom to reduce
// switching activity.  This pass implements the window form of the idea:
//
//   1. around each gate, take the two-level fanin window and its boundary
//      cut (<= max_window_inputs signals);
//   2. tabulate the node's local function over boundary minterms;
//   3. compute the local *controllability* don't-cares — boundary patterns
//      no primary-input assignment can produce.  Exact: a pattern seen in
//      a 512-pattern simulation of the round's netlist is reachable; only
//      the unseen ones go to the global-BDD reachability conjunction
//      (logicopt.resynth.{minterms, sim_reached, bdd_checked} metrics);
//   4. minimize the local cover against those don't-cares (sop::minimize),
//      factor it weighted by boundary-signal activity, and rebuild;
//   5. keep the rewrite when the factored form costs fewer literals than
//      the window it replaces.
//
// Activities come from a cone-scoped incremental analyzer the pass owns and
// refreshes after every kept rewrite, so each window is weighted by the
// switching of the circuit as it currently stands.  The pass is serial.
//
// Function preservation is exact: the rewritten node agrees with the old
// one on every *reachable* boundary pattern.

#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"

namespace lps::logicopt {

struct ResynthOptions {
  int max_window_inputs = 8;
  int max_rewrites = 200;
  std::size_t bdd_limit = 1u << 22;
  /// Stimulus for the internal re-scoring analyzer (ZeroDelay).  The
  /// defaults reproduce the flow's measure_activity(net, 64, seed) frames:
  /// 4096 vectors = 64 words of 64 patterns.
  std::size_t rescore_vectors = 4096;
  std::uint64_t rescore_seed = 5;
  /// Unused: the pass always examines windows serially.  Kept only so
  /// existing callers that assign it still compile; it changes nothing.
  int workers = 0;
};

struct ResynthResult {
  int windows_examined = 0;
  int nodes_rewritten = 0;
  std::size_t gates_before = 0;
  std::size_t gates_after = 0;
  /// Kept rewrites whose activities were refreshed through the incremental
  /// analyzer (== nodes_rewritten unless the analyzer was dropped).
  int rescored = 0;
  /// Windows skipped because their boundary exceeded max_window_inputs even
  /// after the one-level retry.  Never silent: also counted as the
  /// logicopt.resynth.capped metric and described in `note`.
  int windows_capped = 0;
  /// True when the max_rewrites budget stopped the pass with candidate
  /// windows still unexamined (logicopt.resynth.rewrites_capped metric).
  bool rewrites_capped = false;
  /// One-line diagnostic describing any cap that was hit; empty otherwise.
  std::string note;
};

/// Rewrite nodes in place.  `toggles_per_cycle` (e.g. from
/// sim::measure_activity) is the fallback activity source, used only when
/// the pass's own analyzer cannot be built or is dropped
/// (logicopt.resynth.rescore_dropped); may be shorter than net.size() (new
/// nodes default to inactive).
ResynthResult resynthesize_windows(Netlist& net,
                                   const std::vector<double>& toggles_per_cycle,
                                   const ResynthOptions& opt = {});

}  // namespace lps::logicopt
