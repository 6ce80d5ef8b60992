#include "core/pass.hpp"

#include <optional>
#include <stdexcept>
#include <utility>

#include "core/metrics.hpp"
#include "core/parallel.hpp"
#include "logicopt/dontcare.hpp"
#include "logicopt/path_balance.hpp"
#include "netlist/validate.hpp"
#include "sim/logicsim.hpp"

namespace lps::core {

bool all_ok(const std::vector<PassRecord>& records) {
  for (const auto& r : records)
    if (!r.ok) return false;
  return true;
}

TransformGuard::TransformGuard(Netlist& net, std::string scope,
                               std::size_t verify_frames,
                               std::uint64_t verify_seed,
                               bool check_invariants,
                               std::optional<power::AnalysisOptions> estimate)
    : net_(net),
      scope_(std::move(scope)),
      verify_frames_(verify_frames),
      verify_seed_(verify_seed),
      check_invariants_(check_invariants),
      estimate_(std::move(estimate)) {
  if (!estimate_) return;
  try {
    inc_.emplace(net_, *estimate_);
  } catch (const CancelledError&) {
    throw;  // deadline during the baseline: abort the whole pipeline
  } catch (const std::exception&) {
    // Degraded but alive: estimates fall back to full analyze().
    metrics::count(scope_ + ".estimate_fallback");
  }
}

const power::Analysis& TransformGuard::analysis() {
  if (inc_) return inc_->analysis();
  if (!full_) full_ = power::analyze(net_, *estimate_);
  return *full_;
}

void TransformGuard::drop_analyzer() {
  inc_.reset();
  full_.reset();
  metrics::count(scope_ + ".estimate_dropped");
}

TransformGuard::Result TransformGuard::run(
    const std::function<std::string(Netlist&)>& transform,
    const std::function<bool(double)>& keep) {
  Netlist& net = net_;
  Result res;
  sim::SimTrace ref;
  if (verify_frames_ > 0)
    ref = sim::functional_trace(net, verify_frames_, verify_seed_);
  net.begin_undo();
  // The transform's epoch depth.  A transform may open nested epochs of its
  // own (the optimization engines journal each candidate); one that dies
  // with an inner epoch still open must be unwound down TO this depth — a
  // single rollback_undo() would pop only the innermost candidate epoch and
  // leave the transform half-applied.
  const std::size_t base_depth = net.undo_depth();
  auto unwind = [&net, base_depth] {
    while (net.undo_depth() >= base_depth) net.rollback_undo();
  };
  std::optional<diag::Diagnostic> failure;
  try {
    res.summary = transform(net);
    // A transform that *returns* with inner epochs open is also a defect,
    // but a benign one: absorb them into this epoch (the checks below
    // still guard the result) and record the smell.
    while (net.undo_depth() > base_depth) {
      metrics::count(scope_ + ".stray_epochs");
      net.commit_undo();
    }
    if (check_invariants_) {
      diag::DiagEngine eng(4);
      if (validate(net, eng) > 0) {
        failure = *eng.first_error();
        failure->message = "broke netlist invariants: " + failure->message;
      }
    }
    if (!failure && verify_frames_ > 0 &&
        sim::functional_trace(net, verify_frames_, verify_seed_) != ref)
      failure = {diag::Severity::Error, "changed circuit function", {}};
  } catch (const CancelledError&) {
    // Deadline fired inside the transform: restore the pre-transform state
    // and abort — cancellation is not a transform defect.
    unwind();
    throw;
  } catch (const diag::DiagError& e) {
    failure = e.diagnostic();
    failure->message = "threw: " + failure->message;
  } catch (const std::exception& e) {
    failure = {diag::Severity::Error, std::string("threw: ") + e.what(), {}};
  }
  if (failure) {
    // The estimator was never advanced, so it still describes the restored
    // circuit.
    unwind();
    res.outcome = Outcome::Failed;
    res.failure = std::move(*failure);
    return res;
  }
  if (!estimate_) {
    net.commit_undo();
    return res;
  }

  // Estimate the transformed circuit while its epoch is open: the touched
  // set scopes the cone update, and a cancellation rolls the transform back
  // (the estimator restores its own caches before throwing).
  std::optional<power::Analysis> full_after;
  bool can_revert = false;  // does the analyzer hold a revertable snapshot?
  try {
    if (inc_) {
      try {
        inc_->reanalyze(net.touched_nodes());
        res.resim_nodes = inc_->last_update().resim_nodes;
        res.full_nodes = inc_->last_update().live_nodes;
        can_revert = true;
      } catch (const CancelledError&) {
        throw;
      } catch (const std::exception&) {
        metrics::count(scope_ + ".estimate_fallback");
        try {
          inc_->rebaseline();
        } catch (const CancelledError&) {
          throw;
        } catch (const std::exception&) {
          drop_analyzer();
        }
      }
    }
    if (!inc_) full_after = power::analyze(net, *estimate_);
  } catch (const CancelledError&) {
    unwind();
    throw;
  }
  const double after_w =
      (inc_ ? inc_->analysis() : *full_after).report.breakdown.total_w();
  if (!keep || keep(after_w)) {
    net.commit_undo();
    if (full_after) full_ = std::move(full_after);
    return res;
  }
  unwind();
  res.outcome = Outcome::Reverted;
  if (inc_) {
    try {
      // A rebaselined estimate left no snapshot to pop; rebuild against the
      // restored circuit instead.
      if (can_revert)
        inc_->revert_last();
      else
        inc_->rebaseline();
    } catch (const CancelledError&) {
      throw;  // circuit already restored; estimator caches are clean
    } catch (const std::exception&) {
      drop_analyzer();
    }
  }
  return res;
}

std::vector<PassRecord> PassManager::run(Netlist& net) const {
  std::vector<PassRecord> records;
  std::optional<power::AnalysisOptions> estimate;
  if (opt_.estimate_power) estimate = opt_.estimate;
  TransformGuard guard(net, "pass", opt_.verify ? opt_.verify_vectors : 0,
                       opt_.verify_seed, opt_.check_invariants, estimate);
  for (const auto& p : passes_) {
    metrics::ScopedTimer timer("pass." + p->name(), /*trace=*/true);
    metrics::count("pass.runs");
    PassRecord rec;
    rec.pass = p->name();
    auto r = guard.run([&p](Netlist& n) { return p->run(n); });
    rec.summary = std::move(r.summary);
    if (r.outcome == TransformGuard::Outcome::Failed) {
      rec.ok = false;
      rec.rolled_back = true;
      rec.diag = std::move(r.failure);
      rec.diag.message = "pass " + rec.pass + " " + rec.diag.message;
      if (!opt_.rollback) throw diag::CheckError(rec.diag);
    } else {
      rec.verified = opt_.verify;
    }
    // Rolled-back passes restored the pre-pass circuit, which the estimate
    // still describes.
    if (opt_.estimate_power)
      rec.power_w = guard.analysis().report.breakdown.total_w();
    if (rec.rolled_back) metrics::count("pass.rolled_back");
    if (rec.verified) metrics::count("pass.verified");
    records.push_back(std::move(rec));
  }
  return records;
}

std::unique_ptr<Pass> make_strash_pass() {
  return std::make_unique<FnPass>("strash", [](Netlist& net) {
    std::size_t before = net.num_gates();
    net = strash(net);
    return "gates " + std::to_string(before) + " -> " +
           std::to_string(net.num_gates());
  });
}

std::unique_ptr<Pass> make_sweep_pass() {
  return std::make_unique<FnPass>("sweep", [](Netlist& net) {
    std::size_t removed = net.sweep();
    return "removed " + std::to_string(removed) + " dead nodes";
  });
}

std::unique_ptr<Pass> make_dontcare_pass(logicopt::DontCareOptions opt) {
  return std::make_unique<FnPass>("dontcare", [opt](Netlist& net) {
    auto st = sim::measure_activity(net, 64, 7);
    auto res = logicopt::optimize_dontcare(net, st.transition_prob, opt);
    return "consts " + std::to_string(res.const_replacements) + ", merges " +
           std::to_string(res.merges) + ", gates " +
           std::to_string(res.gates_before) + " -> " +
           std::to_string(res.gates_after) +
           (res.bdd_limited ? ", stopped at bdd_limit" : "") +
           (res.capped ? ", stopped at max_rewrites" : "");
  });
}

std::unique_ptr<Pass> make_datapath_rewrite_pass(
    logicopt::rewrite::RewriteOptions opt) {
  return std::make_unique<FnPass>("datapath-rewrite", [opt](Netlist& net) {
    auto res = logicopt::rewrite::rewrite_datapath(net, opt);
    return "kept " + std::to_string(res.kept) + "/" +
           std::to_string(res.candidates_scored) + " scored (" +
           std::to_string(res.candidates_seen) + " matched), power " +
           std::to_string(res.power_before_w) + " -> " +
           std::to_string(res.power_after_w) + " W, gates " +
           std::to_string(res.gates_before) + " -> " +
           std::to_string(res.gates_after) +
           (res.capped ? ", queue CAPPED" : "");
  });
}

std::unique_ptr<Pass> make_bdd_synth_pass(logicopt::BddSynthOptions opt) {
  return std::make_unique<FnPass>("bdd-synth", [opt](Netlist& net) {
    auto res = logicopt::synthesize_bdd_cones(net, opt);
    return "kept " + std::to_string(res.kept) + "/" +
           std::to_string(res.cones_examined) + " cones, power " +
           std::to_string(res.power_before_w) + " -> " +
           std::to_string(res.power_after_w) + " W, gates " +
           std::to_string(res.gates_before) + " -> " +
           std::to_string(res.gates_after) +
           (res.note.empty() ? "" : ", " + res.note);
  });
}

std::unique_ptr<Pass> make_balance_pass(int buffer_budget) {
  return std::make_unique<FnPass>("path-balance", [buffer_budget](Netlist& net) {
    auto res = buffer_budget < 0
                   ? logicopt::full_balance(net)
                   : logicopt::partial_balance(net, buffer_budget);
    return "buffers +" + std::to_string(res.buffers_inserted) + ", delay " +
           std::to_string(res.critical_delay_before) + " -> " +
           std::to_string(res.critical_delay_after);
  });
}

}  // namespace lps::core
