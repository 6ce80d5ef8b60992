#include "core/flows.hpp"

#include <stdexcept>
#include <string>

#include "circuit/sizing.hpp"
#include "core/metrics.hpp"
#include "core/pass.hpp"
#include "logicopt/bdd_synth.hpp"
#include "logicopt/dontcare.hpp"
#include "logicopt/resynth.hpp"
#include "logicopt/rewrite/engine.hpp"
#include "logicopt/path_balance.hpp"
#include "power/incremental.hpp"
#include "seq/clock_gating.hpp"
#include "seq/encoding.hpp"
#include "seq/guarded_eval.hpp"
#include "sim/logicsim.hpp"

namespace lps::core {

namespace {

power::AnalysisOptions estimate_options(const FlowOptions& opt) {
  power::AnalysisOptions ao;
  ao.mode = opt.estimate_mode;
  ao.n_vectors = opt.sim_vectors;
  ao.seed = opt.seed;
  ao.params = opt.params;
  ao.cancel = opt.cancel;
  return ao;
}

StageReport stage_report(const std::string& stage, const Netlist& net,
                         const power::Analysis& a) {
  StageReport r;
  r.stage = stage;
  r.power_w = a.report.breakdown.total_w();
  r.glitch_fraction = a.glitch_fraction;
  r.gates = net.num_gates();
  r.delay = net.critical_delay();
  return r;
}

// Shared stage loop of the combinational and sequential flows.  Each stage
// runs under the same TransformGuard as a PassManager pass (journal epoch,
// invariant and function checks against a pre-stage functional_trace
// digest, unwind on failure, cone-scoped incremental estimate), and the
// flow adds its keep policy: a stage is kept only if it actually lowers
// estimated power.  The survey repeatedly notes that overheads (buffer
// capacitance, gating logic) can offset the savings, so a production flow
// measures and backs out losing transforms.  A stage that throws, corrupts
// the netlist or changes the function is rolled back and recorded as
// failed; the remaining stages still run on the pre-stage circuit.
class StageRunner {
 public:
  StageRunner(FlowResult& res, const FlowOptions& opt)
      : res_(res),
        guard_(res.circuit, "flow", 512, 17, /*check_invariants=*/true,
               estimate_options(opt)) {}

  /// Report for the circuit as it stands (used for the post-strash entry).
  StageReport current(const std::string& stage) {
    return stage_report(stage, res_.circuit, guard_.analysis());
  }

  template <typename Fn>
  void attempt(const std::string& stage, Fn&& transform) {
    metrics::ScopedTimer timer("flow." + stage, /*trace=*/true);
    const std::size_t rb_before = res_.circuit.undo_rollbacks();
    const double p_before = res_.stages.back().power_w;
    auto r = guard_.run(
        [&transform](Netlist& net) {
          transform(net);
          return std::string();
        },
        [p_before](double p_after) { return p_after <= p_before; });
    StageReport rep;
    switch (r.outcome) {
      case TransformGuard::Outcome::Kept:
        rep = current(stage);
        metrics::count("flow.stages_kept");
        break;
      case TransformGuard::Outcome::Reverted:
        rep = current(stage);
        rep.status = "reverted";
        metrics::count("flow.stages_reverted");
        break;
      case TransformGuard::Outcome::Failed:
        rep = current(stage);
        rep.status = "failed";
        rep.note = std::move(r.failure.message);
        metrics::count("flow.stages_failed");
        break;
    }
    rep.resim_nodes = r.resim_nodes;  // the estimate's cost, kept or reverted
    rep.full_nodes = r.full_nodes;
    rep.rollbacks = res_.circuit.undo_rollbacks() - rb_before;
    res_.stages.push_back(std::move(rep));
  }

 private:
  FlowResult& res_;
  TransformGuard guard_;
};

void run_logic_stages(StageRunner& runner, const FlowOptions& opt) {
  if (opt.run_dontcare) {
    runner.attempt("dontcare", [&](Netlist& net) {
      auto st = sim::measure_activity(net, 64, opt.seed);
      logicopt::optimize_dontcare(net, st.transition_prob);
    });
    runner.attempt("resynth", [&](Netlist& net) {
      auto st = sim::measure_activity(net, 64, opt.seed);
      logicopt::resynthesize_windows(net, st.transition_prob);
    });
  }
  if (opt.run_datapath) {
    runner.attempt("datapath", [&](Netlist& net) {
      logicopt::rewrite::RewriteOptions ro;
      ro.seed = opt.seed;
      // Match the flow's own estimator stimulus so that (in ZeroDelay mode)
      // a rewrite the engine keeps is a win under the stage keep-check too.
      ro.sim_vectors = opt.sim_vectors;
      logicopt::rewrite::rewrite_datapath(net, ro);
    });
  }
  if (opt.run_bdd_synth) {
    runner.attempt("bdd_synth", [&](Netlist& net) {
      logicopt::BddSynthOptions bo;
      // Match the flow's estimator stimulus so a cone the engine keeps is
      // a win under the stage keep-check too (ZeroDelay mode).
      bo.sim_vectors = opt.sim_vectors;
      bo.seed = opt.seed;
      logicopt::synthesize_bdd_cones(net, bo);
    });
  }
  if (opt.run_balance) {
    runner.attempt("balance", [&](Netlist& net) { logicopt::full_balance(net); });
  }
  if (opt.run_sizing) {
    runner.attempt("sizing", [&](Netlist& net) {
      power::AnalysisOptions ao;
      ao.mode = power::ActivityMode::Timed;
      ao.n_vectors = opt.sim_vectors;
      ao.seed = opt.seed;
      auto a = power::analyze(net, ao);
      circuit::SizingParams sp;
      sp.start_from_max = false;  // in-place: only ever removes capacitance
      sp.min_size = 0.5;
      sp.step = 0.25;
      circuit::size_for_power(net, a.toggles_per_cycle, opt.params, sp);
    });
  }
}

FlowResult run_flow(const Netlist& input, const FlowOptions& opt,
                    bool gate_self_loops) {
  FlowResult res;
  res.circuit = strash(input);
  if (!sim::equivalent_random(input, res.circuit, 512, 17))
    throw std::logic_error("flow: strash changed function");
  res.stages.push_back(stage_report(
      "input", input, power::analyze(input, estimate_options(opt))));
  StageRunner runner(res, opt);
  res.stages.push_back(runner.current("strash"));
  run_logic_stages(runner, opt);
  // Hold-on-self-loop gating: functionally a no-op, kept only when the
  // comparator's own power doesn't eat the clock-gating win.
  if (gate_self_loops && !res.circuit.dffs().empty()) {
    runner.attempt("selfloop-gate",
                   [](Netlist& net) { seq::gate_fsm_self_loops(net); });
  }
  return res;
}

}  // namespace

FlowResult optimize_combinational(const Netlist& input,
                                  const FlowOptions& opt) {
  return run_flow(input, opt, /*gate_self_loops=*/false);
}

FlowResult optimize_sequential(const Netlist& input, const FlowOptions& opt) {
  return run_flow(input, opt, /*gate_self_loops=*/true);
}

FsmFlowResult optimize_fsm(const seq::Stg& stg, const FlowOptions& opt) {
  metrics::ScopedTimer timer("flow.fsm", /*trace=*/true);
  FsmFlowResult r;
  auto binary = seq::binary_encoding(stg);
  seq::AnnealOptions an;
  an.seed = static_cast<std::uint32_t>(opt.seed);
  auto low = seq::low_power_encoding(stg, an);
  r.wswitch_binary = binary.weighted_switching(stg);
  r.wswitch_lowpower = low.weighted_switching(stg);

  Netlist nb = seq::synthesize_fsm(stg, binary, stg.state_name(0) + "_bin");
  Netlist nl = seq::synthesize_fsm(stg, low, stg.state_name(0) + "_low");
  power::AnalysisOptions ao = estimate_options(opt);
  r.power_binary_w = power::analyze(nb, ao).report.breakdown.total_w();

  // The gating rewrite is local, so the post-gating estimate reuses the
  // pre-gating baseline and re-simulates only the touched cone.
  power::IncrementalAnalyzer inc(nl, ao);
  r.power_lowpower_w = inc.analysis().report.breakdown.total_w();
  nl.begin_undo();
  seq::gate_fsm_self_loops(nl);
  auto touched = nl.touched_nodes();
  nl.commit_undo();
  r.power_gated_w = inc.reanalyze(touched).report.breakdown.total_w();
  auto patterns = seq::detect_hold_patterns(nl);
  auto ca = seq::clock_activity(nl, patterns, opt.sim_vectors, opt.seed);
  r.clock_saving_fraction = ca.clock_power_saving_fraction();
  r.circuit = std::move(nl);
  return r;
}

}  // namespace lps::core
