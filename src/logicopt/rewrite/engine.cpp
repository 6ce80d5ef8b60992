#include "logicopt/rewrite/engine.hpp"

#include <algorithm>
#include <atomic>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/metrics.hpp"
#include "logicopt/speculate.hpp"
#include "power/incremental.hpp"
#include "sim/logicsim.hpp"

namespace lps::logicopt::rewrite {

namespace detail {
namespace {
std::atomic<int> g_force_unsound{0};
std::atomic<int> g_force_throw{0};

bool consume(std::atomic<int>& counter) {
  int v = counter.load(std::memory_order_relaxed);
  while (v > 0) {
    if (counter.compare_exchange_weak(v, v - 1, std::memory_order_relaxed))
      return v == 1;  // fires when the countdown hits zero
  }
  return false;
}
}  // namespace

void force_unsound_rewrites(int n) {
  g_force_unsound.store(n, std::memory_order_relaxed);
}
void force_throw_on_candidate(int n) {
  g_force_throw.store(n, std::memory_order_relaxed);
}
}  // namespace detail

namespace {

// Touched-set union of keeps committed since the oracle was last synced.
// Flushed as one synthetic reanalyze: the resimulated cone words converge to
// the current netlist and the spliced counters are integers, so one union
// update leaves the oracle bit-identical to per-keep updates.
struct PendingTouched {
  std::vector<NodeId> ids;
  std::vector<NodeId> roots;
  bool any = false;

  void add(const Netlist::TouchedNodes& t) {
    any = true;
    ids.insert(ids.end(), t.ids.begin(), t.ids.end());
    roots.insert(roots.end(), t.value_roots.begin(), t.value_roots.end());
  }
};

void sort_unique(std::vector<NodeId>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

}  // namespace

RewriteResult rewrite_datapath(Netlist& net, const RewriteOptions& opt) {
  core::metrics::ScopedTimer timer("logicopt.rewrite", /*trace=*/true);
  RewriteResult res;
  res.gates_before = net.num_gates();
  const int workers = speculate::resolve_workers(opt.workers);
  res.workers_used = workers;

  // Private deterministic oracle: ZeroDelay statistics are bit-identical
  // across sim engines/widths/threads, so the kept-rewrite sequence never
  // depends on the caller's estimation configuration.
  power::AnalysisOptions ao;
  ao.mode = power::ActivityMode::ZeroDelay;
  ao.n_vectors = opt.sim_vectors;
  ao.seed = opt.seed;
  power::IncrementalAnalyzer oracle(net, ao);
  double power = oracle.analysis().report.breakdown.total_w();
  res.power_before_w = power;

  // The soundness proof baseline: kept candidates are exact, so the
  // primary-output streams of the oracle's cached stimulus never change and
  // one digest serves the whole run.  A post-candidate digest mismatch is
  // exactly a full-circuit differential-trace failure restricted to where
  // it can show (the PO streams), at O(outputs x frames) per check instead
  // of O(netlist x frames).
  const std::uint64_t base_digest = oracle.outputs_digest();

  // The full-trace reference (LogicSim) backs the belt-and-braces
  // verify_full mode only; default runs never pay for it.
  sim::SimTrace ref;
  if (opt.verify_full)
    ref = sim::functional_trace(net, opt.verify_frames, opt.verify_seed);

  PendingTouched pending;
  auto sync_oracle = [&] {
    if (!pending.any) return;
    Netlist::TouchedNodes t;
    t.all = false;
    sort_unique(pending.ids);
    sort_unique(pending.roots);
    t.ids = std::move(pending.ids);
    t.value_roots = std::move(pending.roots);
    pending = {};
    oracle.reanalyze(t);
  };

  // Score an applied candidate through the live oracle and keep or revert
  // it — the tail of the sequential per-candidate body, shared with the
  // serial re-score path of the speculative commit loop.  The candidate's
  // undo epoch is open on entry and closed (committed or rolled back) on
  // normal return; the oracle must be synced to the pre-candidate netlist.
  // On a keep, `fp_out` (when given) receives the keep's dirty activity
  // footprint for the speculative conflict set.
  auto score_and_decide = [&](const Netlist::TouchedNodes& touched,
                              std::vector<NodeId>* fp_out = nullptr) -> bool {
    double cand_power = 0.0;
    try {
      cand_power = oracle.score_candidate(touched);
    } catch (...) {
      // score_candidate restored the oracle's caches; restoring the
      // netlist leaves caller state fully consistent.
      net.rollback_undo();
      throw;
    }
    ++res.candidates_scored;
    std::vector<NodeId> fp = speculate::dirty_footprint(net, touched);
    speculate::DeltaScore d = speculate::score_delta(
        oracle.previous_analysis(), oracle.analysis(), fp);
    bool keep = d.delta_w < -opt.min_gain_w;
    if (keep) {
      bool mismatch = oracle.outputs_digest() != base_digest;
      if (!mismatch && opt.verify_full)
        mismatch = sim::functional_trace(net, opt.verify_frames,
                                         opt.verify_seed) != ref;
      if (mismatch || detail::consume(detail::g_force_unsound)) {
        ++res.unsound;
        core::metrics::count("logicopt.rewrite.unsound");
        keep = false;
      }
    }
    if (keep) {
      net.commit_undo();
      if (fp_out) *fp_out = std::move(fp);
      power = cand_power;
      ++res.kept;
      core::metrics::count("logicopt.rewrite.kept");
    } else {
      net.rollback_undo();
      oracle.revert_last();
      ++res.reverted;
      core::metrics::count("logicopt.rewrite.reverted");
    }
    return keep;
  };

  // Sequential candidate processing (workers == 1, and the reference
  // semantics the speculative path must reproduce bit-for-bit).
  auto process_serial = [&](const Candidate& cand) -> bool {
    net.begin_undo();
    if (detail::consume(detail::g_force_throw))
      throw std::runtime_error("rewrite: injected mid-candidate failure");
    bool applied = false;
    try {
      applied = apply_rule(net, cand);
    } catch (...) {
      net.rollback_undo();
      throw;
    }
    if (!applied) {
      ++res.stale;  // epoch recorded nothing; commit is free
      net.commit_undo();
      return false;
    }
    return score_and_decide(net.touched_nodes());
  };

  // Speculative processing: score the batch against a snapshot on worker
  // threads, then commit in queue order.  Disjoint winners transplant the
  // worker's delta and proof verdict; anything that overlapped an earlier
  // keep (or whose snapshot verdict is unusable) is re-scored serially at
  // exactly the point the sequential engine would have scored it.  Chaos
  // hooks are consumed only here, in commit order, so their firing point is
  // identical at any worker count.
  auto run_spec_batch = [&](std::span<const Candidate> batch) -> std::size_t {
    sync_oracle();  // workers clone the oracle; it must mirror the net
    const std::size_t snap_size = net.size();
    int team = static_cast<int>(
        std::min<std::size_t>(static_cast<std::size_t>(workers), batch.size()));
    std::vector<speculate::CandidateScore> scores =
        speculate::score_rewrite_batch(net, oracle, batch, opt.min_gain_w,
                                       team);
    ++res.spec_batches;
    core::metrics::count("logicopt.spec.batches");
    speculate::ConflictSet committed(snap_size);
    std::size_t kept_this_batch = 0;
    for (std::size_t k = 0; k < batch.size(); ++k) {
      const Candidate& cand = batch[k];
      speculate::CandidateScore& sc = scores[k];
      // A cancellation raised on a worker must abort the run (at this
      // candidate's sequential position), not be re-executed serially.
      speculate::rethrow_if_cancelled(sc.error);
      bool conflict = sc.error != nullptr || sc.forced_conflict ||
                      committed.hits(sc.reads) || committed.hits(sc.footprint);
      if (conflict) {
        ++res.spec_conflicts;
        core::metrics::count("logicopt.spec.conflicts");
        sync_oracle();  // serial scoring needs a live previous_analysis
      }
      net.begin_undo();
      if (detail::consume(detail::g_force_throw))
        throw std::runtime_error("rewrite: injected mid-candidate failure");
      bool applied = false;
      try {
        applied = apply_rule(net, cand);
      } catch (...) {
        net.rollback_undo();
        throw;
      }
      if (!applied) {
        ++res.stale;
        net.commit_undo();
        continue;
      }
      Netlist::TouchedNodes touched = net.touched_nodes();
      if (!conflict &&
          (!sc.applied || touched.all ||
           !speculate::same_touched(sc.touched_snap, sc.roots_snap, touched,
                                    snap_size))) {
        // The snapshot verdict is unusable (the candidate was stale there,
        // the live apply invalidated wholesale, or the live apply made a
        // *different* edit than the snapshot scored — a read outside the
        // structural closure): surface it as a conflict and redo the
        // apply with the oracle synced first.
        net.rollback_undo();
        ++res.spec_conflicts;
        core::metrics::count("logicopt.spec.conflicts");
        conflict = true;
        sync_oracle();
        net.begin_undo();
        applied = false;
        try {
          applied = apply_rule(net, cand);
        } catch (...) {
          net.rollback_undo();
          throw;
        }
        if (!applied) {
          ++res.stale;
          net.commit_undo();
          continue;
        }
        touched = net.touched_nodes();
      }
      if (conflict) {
        ++res.spec_rescored;
        core::metrics::count("logicopt.spec.rescored");
        std::vector<NodeId> fp;
        if (score_and_decide(touched, &fp)) {
          ++kept_this_batch;
          // The conflict set carries the keep's structural edit *and* its
          // dirty activity footprint: a later candidate whose cone
          // reconverges with this keep's toggle changes downstream (no
          // structural overlap) must not transplant a pre-keep delta.
          committed.add(touched.ids);
          committed.add(fp);
          // score_and_decide reanalyzed the live oracle; nothing pending.
        }
        continue;
      }
      // Disjoint from every committed keep: the worker's delta and proof
      // transplant bit-for-bit.
      ++res.candidates_scored;
      bool keep = sc.keep;
      if (keep) {
        bool mismatch = !sc.sound;
        if (!mismatch && opt.verify_full)
          mismatch = sim::functional_trace(net, opt.verify_frames,
                                           opt.verify_seed) != ref;
        if (mismatch || detail::consume(detail::g_force_unsound)) {
          ++res.unsound;
          core::metrics::count("logicopt.rewrite.unsound");
          keep = false;
        }
      }
      if (keep) {
        net.commit_undo();
        ++res.kept;
        ++kept_this_batch;
        core::metrics::count("logicopt.rewrite.kept");
        committed.add(touched.ids);
        committed.add(speculate::dirty_footprint(net, touched));
        pending.add(touched);
      } else {
        net.rollback_undo();
        ++res.reverted;
        core::metrics::count("logicopt.rewrite.reverted");
      }
    }
    return kept_this_batch;
  };

  auto run_queue = [&](std::vector<Candidate> queue) -> std::size_t {
    res.candidates_seen += queue.size();
    if (queue.size() > opt.max_candidates) {
      // Never truncate silently: the result flags it, metrics count it, and
      // the diagnostic names the bound that did it.
      if (!res.capped)
        core::metrics::count("logicopt.rewrite.capped_runs");
      core::metrics::count("logicopt.rewrite.capped",
                           static_cast<double>(queue.size() -
                                               opt.max_candidates));
      res.capped = true;
      queue.resize(opt.max_candidates);
    }
    std::size_t kept_this_round = 0;
    if (workers <= 1) {
      for (const Candidate& cand : queue)
        if (process_serial(cand)) ++kept_this_round;
      return kept_this_round;
    }
    const std::size_t batch_size =
        opt.spec_batch ? opt.spec_batch
                       : static_cast<std::size_t>(32) *
                             static_cast<std::size_t>(workers);
    for (std::size_t start = 0; start < queue.size(); start += batch_size) {
      std::size_t n = std::min(batch_size, queue.size() - start);
      kept_this_round +=
          run_spec_batch(std::span<const Candidate>(queue).subspan(start, n));
    }
    return kept_this_round;
  };

  // Constant folding cascades — each folded gate exposes const sites one
  // level downstream — so drain fold-only queues to a fixpoint first.
  // Every fold is scored and proven like any other candidate; this phase
  // just keeps the propagation from paying a full-rule-space rescore per
  // level.  The iteration bound is a backstop: each productive pass
  // retires at least one gate, so it can't loop.
  if (opt.rules.fold) {
    MatchOptions fold_only;
    fold_only.reassoc = fold_only.inv_push = fold_only.share = false;
    fold_only.mux = fold_only.carry = fold_only.distrib = false;
    for (int pass = 0; pass < 256; ++pass) {
      std::vector<Candidate> queue = match_rules(net, fold_only);
      if (queue.empty() || run_queue(std::move(queue)) == 0) break;
    }
  }

  for (int round = 0; round < opt.max_rounds; ++round) {
    if (run_queue(match_rules(net, opt.rules)) == 0) break;
  }

  if (workers > 1) {
    // Transplanted keeps deferred their oracle updates; settle them so the
    // exit estimate is the same full assembly the sequential engine ends on.
    sync_oracle();
    power = oracle.analysis().report.breakdown.total_w();
  }
  res.power_after_w = power;
  res.gates_after = net.num_gates();
  return res;
}

}  // namespace lps::logicopt::rewrite
