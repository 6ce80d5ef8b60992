// flow_phase.cpp — the flow half of a workload: a pass of the low-power
// flow over the netlist set, the independent output check, and the traced
// replay of the flow's stage loop.

#include <array>
#include <functional>
#include <stdexcept>

#include "bdd/bdd.hpp"
#include "bdd/bdd_netlist.hpp"
#include "circuit/sizing.hpp"
#include "common.hpp"
#include "core/metrics.hpp"
#include "core/parallel.hpp"
#include "logicopt/bdd_synth.hpp"
#include "logicopt/dontcare.hpp"
#include "logicopt/path_balance.hpp"
#include "logicopt/resynth.hpp"
#include "logicopt/rewrite/engine.hpp"
#include "power/activity.hpp"
#include "seq/guarded_eval.hpp"
#include "sim/logicsim.hpp"

namespace perfbench {

using lps::Netlist;
namespace core = lps::core;
namespace metrics = lps::core::metrics;

namespace {

// The flow's own verification stimulus (core/flows.cpp): 512 frames, seed 17.
constexpr std::size_t kFlowCheckFrames = 512;
constexpr std::uint64_t kFlowCheckSeed = 17;
// The independent check's random stimulus: a different frame count, and a
// seed derived from the run seed that never equals the flow's.
constexpr std::size_t kCheckFrames = 1000;
constexpr std::size_t kExhaustiveMaxInputs = 16;
constexpr std::size_t kBddNodeLimit = 1u << 22;

double ratio_of(double out, double in) { return in > 0 ? out / in : 1.0; }

// Exhaustive comparison of two combinational netlists on the reference
// interpreter: every input pattern, 64 to a word.
bool equal_exhaustive(const Netlist& a, const Netlist& b) {
  static constexpr std::array<std::uint64_t, 6> kLow = {
      0xAAAAAAAAAAAAAAAAull, 0xCCCCCCCCCCCCCCCCull, 0xF0F0F0F0F0F0F0F0ull,
      0xFF00FF00FF00FF00ull, 0xFFFF0000FFFF0000ull, 0xFFFFFFFF00000000ull};
  const std::size_t n = a.inputs().size();
  const std::uint64_t frames = n <= 6 ? 1 : std::uint64_t{1} << (n - 6);
  lps::sim::LogicSim sa(a), sb(b);
  std::vector<std::uint64_t> pi(n);
  lps::sim::Frame fa, fb;
  for (std::uint64_t f = 0; f < frames; ++f) {
    for (std::size_t k = 0; k < n; ++k)
      pi[k] = k < 6 ? kLow[k] : ((f >> (k - 6)) & 1 ? ~std::uint64_t{0} : 0);
    sa.eval_into(fa, pi);
    sb.eval_into(fb, pi);
    if (sa.outputs_of(fa) != sb.outputs_of(fb)) return false;
  }
  return true;
}

// One stage of the flow's ladder as the replay runs it: the span it is
// recorded under and the same public entry point, with the same options,
// that core/flows.cpp calls for it.
struct StageFn {
  const char* span;
  std::function<void(Netlist&)> run;
};

StageFn stage_fn(const std::string& stage, const core::FlowOptions& opt) {
  if (stage == "dontcare")
    return {"logicopt.dontcare", [&opt](Netlist& net) {
              auto st = lps::sim::measure_activity(net, 64, opt.seed);
              lps::logicopt::optimize_dontcare(net, st.transition_prob);
            }};
  if (stage == "resynth")
    return {"logicopt.resynth", [&opt](Netlist& net) {
              auto st = lps::sim::measure_activity(net, 64, opt.seed);
              lps::logicopt::ResynthOptions rso;
              rso.workers = opt.opt_workers;
              lps::logicopt::resynthesize_windows(net, st.transition_prob, rso);
            }};
  if (stage == "datapath")
    return {"logicopt.datapath", [&opt](Netlist& net) {
              lps::logicopt::rewrite::RewriteOptions ro;
              ro.seed = opt.seed;
              ro.sim_vectors = opt.sim_vectors;
              ro.workers = opt.opt_workers;
              lps::logicopt::rewrite::rewrite_datapath(net, ro);
            }};
  if (stage == "bdd_synth")
    return {"logicopt.bdd_synth", [&opt](Netlist& net) {
              lps::logicopt::BddSynthOptions bo;
              bo.sim_vectors = opt.sim_vectors;
              bo.seed = opt.seed;
              lps::logicopt::synthesize_bdd_cones(net, bo);
            }};
  if (stage == "balance")
    return {"logicopt.balance",
            [](Netlist& net) { lps::logicopt::full_balance(net); }};
  if (stage == "sizing")
    return {"circuit.sizing", [&opt](Netlist& net) {
              lps::power::AnalysisOptions ao;
              ao.mode = lps::power::ActivityMode::Timed;
              ao.n_vectors = opt.sim_vectors;
              ao.seed = opt.seed;
              auto a = lps::power::analyze(net, ao);
              lps::circuit::SizingParams sp;
              sp.start_from_max = false;
              sp.min_size = 0.5;
              sp.step = 0.25;
              lps::circuit::size_for_power(net, a.toggles_per_cycle, opt.params, sp);
            }};
  if (stage == "selfloop-gate")
    return {"seq.selfloop_gate",
            [](Netlist& net) { lps::seq::gate_fsm_self_loops(net); }};
  return {nullptr, {}};
}

// "resynth (reverted)" -> "resynth".
std::string base_stage(const std::string& stage) {
  return stage.substr(0, stage.find(" ("));
}

}  // namespace

core::FlowOptions flow_options(int workers) {
  core::FlowOptions fo;  // the flow's own stimulus seed stays at its default
  fo.sim_vectors = 1024;
  fo.estimate_mode = lps::power::ActivityMode::Timed;
  fo.opt_workers = workers;
  return fo;
}

Quality FlowPass::quality() const {
  std::vector<double> power, gates, delay;
  for (const auto& r : results) {
    const core::StageReport* last = r.last_kept_stage();
    if (!last) continue;
    const core::StageReport& in = r.stages.front();
    power.push_back(ratio_of(last->power_w, in.power_w));
    gates.push_back(ratio_of(static_cast<double>(last->gates), static_cast<double>(in.gates)));
    delay.push_back(ratio_of(last->delay, in.delay));
  }
  return {geomean(power), geomean(gates), geomean(delay)};
}

std::vector<std::uint64_t> FlowPass::hashes() const {
  std::vector<std::uint64_t> h;
  for (std::size_t i = 0; i < results.size(); ++i)
    h.push_back(errors[i].empty() ? lps::structural_hash(results[i].circuit) : 0);
  return h;
}

FlowPass run_flow_pass(const Workload& wl, const core::FlowOptions& fo,
                       bool counts) {
  FlowPass pass;
  pass.results.resize(wl.circuits.size());
  pass.errors.resize(wl.circuits.size());
  pass.wall_s.resize(wl.circuits.size());
  for (std::size_t i = 0; i < wl.circuits.size(); ++i) {
    const Circuit& c = wl.circuits[i];
    if (counts) metrics::reset();
    auto t0 = Clock::now();
    try {
      pass.results[i] = c.sequential ? core::optimize_sequential(c.net, fo)
                                     : core::optimize_combinational(c.net, fo);
    } catch (const std::exception& e) {
      pass.errors[i] = std::string("flow threw: ") + e.what();
    }
    pass.wall_s[i] = seconds_since(t0);
    if (!counts) continue;
    RegistryCounts& k = pass.counts;
    auto v = [](const char* name) { return metrics::value(name); };
    k.fallback_full += v("power.inc.fallback_full");
    k.node_evals += v("power.inc.node_evals");
    k.node_evals_full += v("power.inc.node_evals_full");
    k.bdd_nodes += v("bdd.nodes");
    k.ite_hits += v("bdd.ite_hits");
    k.ite_lookups += v("bdd.ite_lookups");
    k.rewrite_kept += v("logicopt.rewrite.kept");
    k.rewrite_tried += v("logicopt.rewrite.kept") + v("logicopt.rewrite.reverted") +
                       v("logicopt.rewrite.unsound");
    k.bdd_synth_kept += v("logicopt.bdd_synth.kept");
    k.bdd_synth_tried += v("logicopt.bdd_synth.kept") +
                         v("logicopt.bdd_synth.reverted") +
                         v("logicopt.bdd_synth.unsound");
    k.stages_kept += v("flow.stages_kept");
    k.stages_tried += v("flow.stages_kept") + v("flow.stages_reverted") +
                      v("flow.stages_failed");
    k.event_vectors += v("sim.event.vectors");
    for (const auto& st : pass.results[i].stages)
      k.rollbacks += static_cast<double>(st.rollbacks);
  }
  return pass;
}

std::size_t check_outputs(const Workload& wl, const FlowPass& pass,
                          std::uint64_t seed, std::vector<std::string>& notes) {
  std::uint64_t check_seed = core::shard_seed(seed, 1);
  while (check_seed == kFlowCheckSeed || check_seed == flow_options(1).seed)
    ++check_seed;
  std::size_t failed = 0;
  for (std::size_t i = 0; i < wl.circuits.size(); ++i) {
    const Circuit& c = wl.circuits[i];
    auto fail = [&](const std::string& why) {
      ++failed;
      notes.push_back(c.name + ": " + why);
    };
    if (!pass.errors[i].empty()) {
      fail(pass.errors[i]);
      continue;
    }
    const Netlist& in = c.net;
    const Netlist& out = pass.results[i].circuit;
    try {
      if (in.inputs().size() != out.inputs().size() ||
          in.outputs().size() != out.outputs().size()) {
        fail("output interface changed");
        continue;
      }
      const bool comb = in.dffs().empty() && out.dffs().empty();
      if (comb && in.inputs().size() <= kExhaustiveMaxInputs) {
        if (!equal_exhaustive(in, out)) fail("exhaustive simulation mismatch");
        continue;
      }
      if (!lps::sim::equivalent_random(in, out, kCheckFrames, check_seed)) {
        fail("random simulation mismatch");
        continue;
      }
      if (comb) {
        try {
          if (!lps::bdd::equivalent_bdd(in, out, kBddNodeLimit))
            fail("BDD equivalence mismatch");
        } catch (const lps::bdd::NodeLimitExceeded&) {
          // Too wide for a BDD proof: the random check above stands alone.
        }
      }
    } catch (const std::exception& e) {
      fail(std::string("check threw: ") + e.what());
    }
  }
  return failed;
}

std::size_t replay_traced(const Workload& wl, const FlowPass& pass,
                          const core::FlowOptions& fo, Tracer& tracer,
                          std::vector<std::string>& notes) {
  lps::power::AnalysisOptions ao;
  ao.mode = fo.estimate_mode;
  ao.n_vectors = fo.sim_vectors;
  ao.seed = fo.seed;
  ao.params = fo.params;
  auto estimate = [&](const Netlist& net) {
    Tracer::Scope s(tracer, "power.estimate");
    return lps::power::analyze(net, ao).report.breakdown.total_w();
  };
  auto trace_of = [&](const Netlist& net) {
    Tracer::Scope s(tracer, "sim.verify");
    return lps::sim::functional_trace(net, kFlowCheckFrames, kFlowCheckSeed);
  };

  std::size_t diverged = 0;
  for (std::size_t i = 0; i < wl.circuits.size(); ++i) {
    const Circuit& c = wl.circuits[i];
    if (!pass.errors[i].empty()) continue;  // counted by check_outputs
    const core::FlowResult& flow = pass.results[i];
    std::vector<std::string> why;
    auto expect = [&](bool ok, const std::string& what) {
      if (!ok) why.push_back(what);
    };

    Tracer::Scope top(tracer, "replay " + c.name);
    Netlist net;
    {
      Tracer::Scope s(tracer, "netlist.strash");
      net = lps::strash(c.net);
    }
    {
      Tracer::Scope s(tracer, "sim.verify");
      expect(lps::sim::equivalent_random(c.net, net, kFlowCheckFrames, kFlowCheckSeed),
             "strash changed function");
    }
    expect(flow.stages.size() >= 2, "flow recorded fewer than 2 stages");
    double p_in = estimate(c.net);
    double p = estimate(net);
    if (flow.stages.size() >= 2) {
      expect(p_in == flow.stages[0].power_w, "input power differs");
      expect(p == flow.stages[1].power_w, "post-strash power differs");
    }

    for (std::size_t k = 2; k < flow.stages.size(); ++k) {
      const core::StageReport& rep = flow.stages[k];
      StageFn fn = stage_fn(base_stage(rep.stage), fo);
      if (!fn.span)
        throw std::runtime_error("traced replay: unknown flow stage '" +
                                 rep.stage + "' in " + c.name);
      lps::sim::SimTrace ref = trace_of(net);
      std::size_t base_depth = 0;
      {
        Tracer::Scope s(tracer, "netlist.journal");
        net.begin_undo();
        base_depth = net.undo_depth();
      }
      std::string failure;
      try {
        Tracer::Scope s(tracer, fn.span);
        fn.run(net);
      } catch (const std::exception& e) {
        failure = e.what();
      }
      if (failure.empty()) {
        {
          Tracer::Scope s(tracer, "netlist.journal");
          while (net.undo_depth() > base_depth) net.commit_undo();
        }
        std::string err;
        {
          Tracer::Scope s(tracer, "netlist.check");
          err = net.check();
        }
        if (!err.empty())
          failure = "broke netlist invariants: " + err;
        else if (trace_of(net) != ref)
          failure = "changed circuit function";
      }
      std::string status;
      if (!failure.empty()) {
        Tracer::Scope s(tracer, "netlist.journal");
        while (net.undo_depth() >= base_depth) net.rollback_undo();
        status = "failed";
      } else {
        double pw = estimate(net);
        Tracer::Scope s(tracer, "netlist.journal");
        if (pw <= p) {
          net.commit_undo();
          status = "kept";
          expect(pw == rep.power_w, rep.stage + ": kept power differs");
          p = pw;
        } else {
          net.rollback_undo();
          status = "reverted";
        }
      }
      expect(status == rep.status,
             rep.stage + ": replay " + status + ", flow " + rep.status);
    }
    expect(lps::structural_hash(net) == lps::structural_hash(flow.circuit),
           "final structural hash differs");
    if (!why.empty()) {
      ++diverged;
      std::string note = c.name + ": replay diverged:";
      for (const auto& w : why) note += " [" + w + "]";
      notes.push_back(note);
    }
  }
  return diverged;
}

}  // namespace perfbench
