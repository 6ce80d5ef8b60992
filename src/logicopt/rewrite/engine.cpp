#include "logicopt/rewrite/engine.hpp"

#include <atomic>
#include <stdexcept>
#include <vector>

#include "core/metrics.hpp"
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

double score_delta(const power::Analysis& before, const power::Analysis& after,
                   std::span<const NodeId> footprint) {
  const auto& pb = before.report.node_power_w;
  const auto& pa = after.report.node_power_w;
  double acc = 0.0;
  for (NodeId id : footprint) {
    double b = id < pb.size() ? pb[id] : 0.0;
    double a = id < pa.size() ? pa[id] : 0.0;
    acc += a - b;
  }
  return acc + (after.clock_power_w - before.clock_power_w);
}

std::vector<NodeId> dirty_footprint(const Netlist& net,
                                    const Netlist::TouchedNodes& touched) {
  std::vector<bool> mask =
      net.fanout_cone_of(touched.value_roots, /*through_dffs=*/true);
  if (mask.size() < net.size()) mask.resize(net.size(), false);
  for (NodeId id : touched.ids)
    if (id < mask.size()) mask[id] = true;
  std::vector<NodeId> out;
  for (NodeId id = 0; id < mask.size(); ++id)
    if (mask[id]) out.push_back(id);
  return out;
}

RewriteResult rewrite_datapath(Netlist& net, const RewriteOptions& opt) {
  core::metrics::ScopedTimer timer("logicopt.rewrite", /*trace=*/true);
  RewriteResult res;
  res.gates_before = net.num_gates();

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

  // One candidate: apply it in its own undo epoch, score it through the
  // live oracle, and keep it only when its footprint-local power delta beats
  // min_gain_w and the PO-stream proof holds; otherwise roll both the
  // netlist and the oracle back.
  auto process = [&](const Candidate& cand) -> bool {
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
    const Netlist::TouchedNodes touched = net.touched_nodes();
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
    std::vector<NodeId> fp = dirty_footprint(net, touched);
    double delta_w =
        score_delta(oracle.previous_analysis(), oracle.analysis(), fp);
    bool keep = delta_w < -opt.min_gain_w;
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
    for (const Candidate& cand : queue)
      if (process(cand)) ++kept_this_round;
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

  res.power_after_w = power;
  res.gates_after = net.num_gates();
  return res;
}

}  // namespace lps::logicopt::rewrite
