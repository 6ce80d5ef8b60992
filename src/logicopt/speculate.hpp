// speculate.hpp — speculative parallel window examination with a
// deterministic commit order, plus the footprint-local power delta the
// optimization engines score candidates with.
//
// Window resynthesis (resynth.cpp) is the one engine that speculates: its
// per-window work (local-function tabulation against reachability
// don't-cares, SOP minimization, factoring) is expensive and pure, so
// examining a batch of windows on worker threads pays.  The datapath
// rewriter and bdd_synth score serially — a rewrite candidate costs
// microseconds and conflicts with earlier keeps about as often as it is
// kept, so speculation measured 0.43x of the serial rewrite loop at 4
// workers (DESIGN.md, "Speculative candidate scoring").
//
// How resynth keeps its results bit-identical at any worker count:
//
//  * Workers examine window plans read-only against the live netlist, each
//    with a private BDD view built from the round-start netlist.  The
//    netlist is never mutated off the main thread.
//
//  * Plans commit in candidate order on the main thread.  A plan whose
//    read set (read_closure) intersects anything an earlier keep in the
//    batch touched — its structural edit or its dirty activity footprint
//    (ConflictSet) — is re-examined serially at exactly the point the
//    sequential loop would have examined it.  Counted as
//    logicopt.spec.conflicts / logicopt.spec.rescored — never silent.
//
// Workers are dedicated std::threads, never the shared core::ThreadPool:
// the pool is non-reentrant, and an examination that reached it could
// otherwise deadlock behind its own batch.

#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "netlist/netlist.hpp"
#include "power/activity.hpp"

namespace lps::logicopt::speculate {

/// Resolved LPS_OPT_WORKERS knob (parsed once through core/env, range
/// 1..256, default 1 = sequential).
int default_workers();
/// Map an options field to an effective worker count: `requested` when
/// positive, else default_workers(); clamped to [1, 256].
int resolve_workers(int requested);

/// Run fn(worker_index) for indices [0, workers) on dedicated threads (the
/// calling thread participates as worker 0).  fn must not throw — capture
/// per-item exceptions into result slots instead, so the commit loop can
/// handle them in deterministic queue order.
void run_workers(int workers, const std::function<void(int)>& fn);

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

/// Conservative structural read set: the fanin closure of `seeds` to
/// `depth` levels, plus every fanout-list member of a closure node (window
/// extraction reads fanins two levels deep and the fanout counts of
/// interior helpers; any structural change that could alter a window
/// journals a node this closure contains).
std::vector<NodeId> read_closure(const Netlist& net,
                                 std::span<const NodeId> seeds, int depth);

/// Committed-keep id set over the batch-start id space.  Ids at or beyond
/// that size are ignored on both sides: nodes created after the batch
/// started can never be read by a plan examined before it.
class ConflictSet {
 public:
  explicit ConflictSet(std::size_t snapshot_size)
      : mask_(snapshot_size, 0) {}
  void add(std::span<const NodeId> ids) {
    for (NodeId id : ids)
      if (id < mask_.size() && !mask_[id]) {
        mask_[id] = 1;
        ++count_;
      }
  }
  bool hits(std::span<const NodeId> ids) const {
    if (count_ == 0) return false;
    for (NodeId id : ids)
      if (id < mask_.size() && mask_[id]) return true;
    return false;
  }
  bool empty() const { return count_ == 0; }

 private:
  std::vector<char> mask_;
  std::size_t count_ = 0;
};

}  // namespace lps::logicopt::speculate
