// test_incremental.cpp — cone-scoped incremental power re-estimation.
//
// The contract under test (power/incremental.hpp): after any journaled
// mutation, IncrementalAnalyzer::reanalyze() must return bit-for-bit what a
// fresh full power::analyze() of the mutated netlist returns, while
// re-simulating only the touched fanout cone.  Supporting layers are pinned
// too: Netlist::fanout_cone_of / cone_of on reconvergent, multi-output and
// register-crossing topologies, touched_nodes() across undo epochs,
// LogicSim::eval_cone_into splicing, and the flow/pass integration (every
// reported estimate must equal a full analysis of its circuit exactly).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/flows.hpp"
#include "core/metrics.hpp"
#include "core/pass.hpp"
#include "flow_audit.hpp"
#include "netlist/benchmarks.hpp"
#include "power/incremental.hpp"
#include "sim/logicsim.hpp"

namespace {

using namespace lps;

// Exact equality of two analyses: the doubles must be identical bits, not
// merely close — the incremental path derives them through the same
// arithmetic as the full path, so == is the honest assertion.
void expect_identical(const power::Analysis& a, const power::Analysis& b) {
  ASSERT_EQ(a.toggles_per_cycle.size(), b.toggles_per_cycle.size());
  for (std::size_t i = 0; i < a.toggles_per_cycle.size(); ++i)
    EXPECT_EQ(a.toggles_per_cycle[i], b.toggles_per_cycle[i]) << "node " << i;
  EXPECT_EQ(a.report.breakdown.switching_w, b.report.breakdown.switching_w);
  EXPECT_EQ(a.report.breakdown.short_circuit_w,
            b.report.breakdown.short_circuit_w);
  EXPECT_EQ(a.report.breakdown.leakage_w, b.report.breakdown.leakage_w);
  EXPECT_EQ(a.report.total_cap_f, b.report.total_cap_f);
  EXPECT_EQ(a.report.weighted_activity, b.report.weighted_activity);
  EXPECT_EQ(a.clock_power_w, b.clock_power_w);
  EXPECT_EQ(a.vectors_used, b.vectors_used);
}

power::AnalysisOptions zd_options(std::size_t vectors = 2048) {
  power::AnalysisOptions ao;
  ao.mode = power::ActivityMode::ZeroDelay;
  ao.n_vectors = vectors;
  return ao;
}

std::size_t count_set(const std::vector<bool>& v) {
  std::size_t n = 0;
  for (bool b : v)
    if (b) ++n;
  return n;
}

// ---- fanout_cone_of / cone_of topology coverage ---------------------------

TEST(FanoutCone, ReconvergentDiamondVisitedOnce) {
  Netlist net("diamond");
  NodeId a = net.add_input("a");
  NodeId x = net.add_input("x");
  NodeId b = net.add_and(a, x);
  NodeId c = net.add_or(a, x);
  NodeId d = net.add_xor(b, c);  // reconverges on a
  net.add_output(d);
  NodeId roots[] = {a};
  auto cone = net.fanout_cone_of(roots);
  EXPECT_TRUE(cone[a]);
  EXPECT_TRUE(cone[b]);
  EXPECT_TRUE(cone[c]);
  EXPECT_TRUE(cone[d]);
  EXPECT_FALSE(cone[x]);
  EXPECT_EQ(count_set(cone), 4u);
}

TEST(FanoutCone, MultiOutputBranchesBothCovered) {
  Netlist net("multiout");
  NodeId a = net.add_input("a");
  NodeId b = net.add_input("b");
  NodeId g = net.add_and(a, b);
  NodeId o1 = net.add_not(g);
  NodeId o2 = net.add_buf(g);
  net.add_output(o1);
  net.add_output(o2);
  NodeId roots[] = {g};
  auto cone = net.fanout_cone_of(roots);
  EXPECT_TRUE(cone[g]);
  EXPECT_TRUE(cone[o1]);
  EXPECT_TRUE(cone[o2]);
  EXPECT_FALSE(cone[a]);
  EXPECT_FALSE(cone[b]);
}

TEST(FanoutCone, DffBoundaryRespectsThroughFlag) {
  Netlist net("seqcone");
  NodeId a = net.add_input("a");
  NodeId g = net.add_not(a);
  NodeId q = net.add_dff(g);
  NodeId h = net.add_not(q);  // downstream of the register
  net.add_output(h);
  NodeId roots[] = {g};
  auto stop = net.fanout_cone_of(roots, /*through_dffs=*/false);
  EXPECT_TRUE(stop[g]);
  EXPECT_TRUE(stop[q]);   // the register itself is reached...
  EXPECT_FALSE(stop[h]);  // ...but not crossed
  auto cross = net.fanout_cone_of(roots, /*through_dffs=*/true);
  EXPECT_TRUE(cross[q]);
  EXPECT_TRUE(cross[h]);
}

TEST(FanoutCone, DffRootAlwaysExpands) {
  Netlist net("dffroot");
  NodeId a = net.add_input("a");
  NodeId q = net.add_dff(a);
  NodeId h = net.add_not(q);
  net.add_output(h);
  NodeId roots[] = {q};
  auto cone = net.fanout_cone_of(roots, /*through_dffs=*/false);
  EXPECT_TRUE(cone[q]);
  EXPECT_TRUE(cone[h]);  // a root register expands even with the flag off
}

TEST(FaninCone, ReconvergentAndSequentialBoundaries) {
  Netlist net("fanin");
  NodeId a = net.add_input("a");
  NodeId b = net.add_input("b");
  NodeId g1 = net.add_and(a, b);
  NodeId q = net.add_dff(g1);
  NodeId g2 = net.add_xor(q, a);  // reconverges on a
  NodeId g3 = net.add_or(g2, g2);
  net.add_output(g3);
  NodeId roots[] = {g3};
  auto cone = net.cone_of(roots);
  EXPECT_TRUE(cone[g3]);
  EXPECT_TRUE(cone[g2]);
  EXPECT_TRUE(cone[q]);   // register included...
  EXPECT_FALSE(cone[g1]);  // ...its D-side logic is not traversed
  EXPECT_TRUE(cone[a]);
  EXPECT_FALSE(cone[b]);  // b only feeds the un-traversed D logic
}

TEST(FaninCone, MultiOutputRoots) {
  auto net = bench::c17();
  auto outs = net.outputs();
  auto cone = net.cone_of(outs);
  // Every live node of c17 is in the union cone of all outputs.
  for (NodeId id = 0; id < net.size(); ++id) {
    if (!net.is_dead(id)) EXPECT_TRUE(cone[id]) << "node " << id;
  }
}

// ---- touched_nodes() across undo epochs -----------------------------------

TEST(TouchedNodes, NoJournalReportsAll) {
  auto net = bench::c17();
  auto t = net.touched_nodes();
  EXPECT_TRUE(t.all);
  EXPECT_TRUE(t.ids.empty());
}

TEST(TouchedNodes, JournaledEditsAreListed) {
  auto net = bench::alu(4);
  net.begin_undo();
  auto t0 = net.touched_nodes();
  EXPECT_FALSE(t0.all);
  EXPECT_TRUE(t0.ids.empty());

  NodeId pi = net.inputs()[0];
  NodeId g = net.add_not(pi);                 // new node
  net.replace_fanin(net.outputs()[0], 0, g);  // journaled edit
  auto t = net.touched_nodes();
  EXPECT_FALSE(t.all);
  // The new node and the edited node are both reported, ascending & unique.
  EXPECT_TRUE(std::find(t.ids.begin(), t.ids.end(), g) != t.ids.end());
  for (std::size_t i = 1; i < t.ids.size(); ++i)
    EXPECT_LT(t.ids[i - 1], t.ids[i]);

  net.commit_undo();
  EXPECT_TRUE(net.touched_nodes().all);  // epoch closed, journal gone
}

TEST(TouchedNodes, RollbackClosesEpoch) {
  auto net = bench::alu(4);
  net.begin_undo();
  net.add_not(net.inputs()[0]);
  EXPECT_FALSE(net.touched_nodes().all);
  net.rollback_undo();
  EXPECT_TRUE(net.touched_nodes().all);
}

TEST(TouchedNodes, PiListChangeForcesFull) {
  auto net = bench::alu(4);
  net.begin_undo();
  net.add_input("late_pi");
  EXPECT_TRUE(net.touched_nodes().all);
  net.rollback_undo();
}

TEST(TouchedNodes, PoChangeStaysIncremental) {
  auto net = bench::alu(4);
  net.begin_undo();
  net.add_output(net.inputs()[0], "extra_po");
  auto t = net.touched_nodes();
  EXPECT_FALSE(t.all);  // PO list doesn't affect node value streams
  net.rollback_undo();
}

TEST(TouchedNodes, WholesaleReplaceForcesFull) {
  auto net = bench::alu(4);
  net.begin_undo();
  net = strash(net);
  EXPECT_TRUE(net.touched_nodes().all);
  net.rollback_undo();
}

// ---- eval_cone_into splicing ----------------------------------------------

TEST(EvalCone, SpliceMatchesFullEval) {
  auto net = bench::random_dag(8, 120, 42);
  sim::LogicSim sim(net);
  std::vector<std::uint64_t> pis(net.inputs().size());
  for (std::size_t i = 0; i < pis.size(); ++i)
    pis[i] = 0x9E3779B97F4A7C15ULL * (i + 1);
  auto full = sim.eval(pis);

  // Corrupt the cone of an internal node, then cone-evaluate it back.
  NodeId root = net.size() / 2;
  while (net.is_dead(root) || net.node(root).type == GateType::Input) ++root;
  NodeId roots[] = {root};
  auto mask = net.fanout_cone_of(roots, true);
  auto sched = sim.cone_schedule(mask);
  auto f = full;
  for (NodeId id : sched.gates) f[id] = ~f[id];
  sim.eval_cone_into(f, sched);
  EXPECT_EQ(f, full);
}

// ---- incremental vs full bit-identity -------------------------------------

// Apply one journaled mutation, feed the touched set to the analyzer, and
// demand bit-identity with a from-scratch full analysis.
template <typename Fn>
void check_mutation(Netlist net, const power::AnalysisOptions& ao, Fn&& fn) {
  power::IncrementalAnalyzer inc(net, ao);
  net.begin_undo();
  fn(net);
  auto touched = net.touched_nodes();
  net.commit_undo();
  inc.reanalyze(touched);
  expect_identical(inc.analysis(), power::analyze(net, ao));
}

TEST(Incremental, LocalRewriteCombinational) {
  check_mutation(bench::alu(6), zd_options(), [](Netlist& net) {
    // Rewire one gate input to a fresh inverter — a typical local rewrite.
    NodeId g = net.outputs()[0];
    NodeId inv = net.add_not(net.node(g).fanins[0]);
    net.replace_fanin(g, 0, inv);
  });
}

TEST(Incremental, SubstituteRedirectsPo) {
  check_mutation(bench::array_multiplier(4), zd_options(), [](Netlist& net) {
    NodeId o = net.outputs()[0];
    NodeId other = net.outputs()[1];
    net.substitute(o, other);  // touches the PO list but not the PI list
  });
}

TEST(Incremental, RemoveDeadNode) {
  check_mutation(bench::alu(6), zd_options(), [](Netlist& net) {
    // Orphan a gate by redirecting its only fanout, then remove it.
    NodeId victim = kNoNode;
    for (NodeId id = 0; id < net.size(); ++id) {
      const Node& nd = net.node(id);
      if (!net.is_dead(id) && nd.type != GateType::Input &&
          nd.type != GateType::Dff && nd.fanouts.size() == 1 &&
          !nd.fanins.empty()) {
        bool is_po = false;
        for (NodeId o : net.outputs()) is_po |= (o == id);
        if (!is_po) {
          victim = id;
          break;
        }
      }
    }
    ASSERT_NE(victim, kNoNode);
    // substitute() redirects the fanout and removes the now-dead victim —
    // the incremental update must zero its cached counters.
    net.substitute(victim, net.node(victim).fanins[0]);
    ASSERT_TRUE(net.is_dead(victim));
  });
}

TEST(Incremental, SequentialCounterDffCrossing) {
  check_mutation(bench::counter(8), zd_options(), [](Netlist& net) {
    // Invert a D input twice (function preserved, register cone dirtied).
    NodeId d = net.dffs()[2];
    NodeId n1 = net.add_not(net.node(d).fanins[0]);
    NodeId n2 = net.add_not(n1);
    net.replace_fanin(d, 0, n2);
  });
}

TEST(Incremental, ShiftRegisterEnableRewire) {
  check_mutation(bench::shift_register(16), zd_options(), [](Netlist& net) {
    NodeId d = net.dffs()[4];
    NodeId inv2 = net.add_not(net.add_not(net.node(d).fanins[0]));
    net.replace_fanin(d, 0, inv2);
  });
}

TEST(Incremental, ChainOfMutationsStaysIdentical) {
  auto net = bench::alu(4);
  auto ao = zd_options();
  power::IncrementalAnalyzer inc(net, ao);
  for (int step = 0; step < 4; ++step) {
    net.begin_undo();
    NodeId o = net.outputs()[step % net.outputs().size()];
    NodeId inv = net.add_not(net.node(o).fanins.empty()
                                 ? net.inputs()[0]
                                 : net.node(o).fanins[0]);
    if (!net.node(o).fanins.empty()) net.replace_fanin(o, 0, inv);
    auto touched = net.touched_nodes();
    net.commit_undo();
    inc.reanalyze(touched);
    expect_identical(inc.analysis(), power::analyze(net, ao));
  }
}

TEST(Incremental, RevertRestoresBaselineExactly) {
  auto net = bench::alu(6);
  auto ao = zd_options();
  power::IncrementalAnalyzer inc(net, ao);
  auto baseline = inc.analysis();
  net.begin_undo();
  NodeId o = net.outputs()[0];
  NodeId inv = net.add_not(net.node(o).fanins[0]);
  net.replace_fanin(o, 0, inv);
  auto touched = net.touched_nodes();
  inc.reanalyze(touched);
  net.rollback_undo();
  inc.revert_last();
  expect_identical(inc.analysis(), baseline);
  expect_identical(inc.analysis(), power::analyze(net, ao));
  // A second revert has nothing to undo.
  EXPECT_THROW(inc.revert_last(), std::logic_error);
}

TEST(Incremental, RevertAfterFallbackRestoresCache) {
  auto net = bench::alu(4);
  auto ao = zd_options();
  power::IncrementalAnalyzer inc(net, ao);
  auto baseline = inc.analysis();
  net.begin_undo();
  net.add_input("spare");  // PI-list change: forces a full re-baseline
  auto touched = net.touched_nodes();
  EXPECT_TRUE(touched.all);
  inc.reanalyze(touched);
  EXPECT_TRUE(inc.last_update().full_rebaseline);
  net.rollback_undo();
  inc.revert_last();
  expect_identical(inc.analysis(), baseline);
  // The restored cache still supports cone updates.
  net.begin_undo();
  NodeId o = net.outputs()[0];
  net.replace_fanin(o, 0, net.add_not(net.node(o).fanins[0]));
  auto t2 = net.touched_nodes();
  net.commit_undo();
  inc.reanalyze(t2);
  EXPECT_FALSE(inc.last_update().full_rebaseline);
  expect_identical(inc.analysis(), power::analyze(net, ao));
}

TEST(Incremental, TimedModeFallsBackToFull) {
  auto net = bench::c17();
  power::AnalysisOptions ao;
  ao.mode = power::ActivityMode::Timed;
  ao.n_vectors = 256;
  power::IncrementalAnalyzer inc(net, ao);
  net.begin_undo();
  NodeId o = net.outputs()[0];
  net.replace_fanin(o, 0, net.add_not(net.node(o).fanins[0]));
  auto touched = net.touched_nodes();
  net.commit_undo();
  inc.reanalyze(touched);
  EXPECT_TRUE(inc.last_update().full_rebaseline);
  expect_identical(inc.analysis(), power::analyze(net, ao));
}

TEST(Incremental, ConeUpdateEvaluatesFarFewerNodes) {
  auto net = bench::array_multiplier(6);
  auto ao = zd_options();
  power::IncrementalAnalyzer inc(net, ao);
  net.begin_undo();
  // Local rewrite near an output: double inversion on one PO driver.
  NodeId o = net.outputs()[net.outputs().size() - 1];
  net.replace_fanin(o, 0, net.add_not(net.add_not(net.node(o).fanins[0])));
  auto touched = net.touched_nodes();
  net.commit_undo();
  inc.reanalyze(touched);
  const auto& up = inc.last_update();
  EXPECT_FALSE(up.full_rebaseline);
  EXPECT_GE(up.live_nodes, 5 * up.resim_nodes)
      << "cone " << up.resim_nodes << " of " << up.live_nodes;
  expect_identical(inc.analysis(), power::analyze(net, ao));
}

// ---- satellite: vectors_used reporting ------------------------------------

TEST(Analysis, VectorsUsedReportsFrameRounding) {
  auto net = bench::c17();
  auto a2048 = power::analyze(net, zd_options(2048));
  EXPECT_EQ(a2048.vectors_used, 2048u);
  // 2047 rounds down to 31 frames = 1984 patterns — previously silent.
  auto a2047 = power::analyze(net, zd_options(2047));
  EXPECT_EQ(a2047.vectors_used, 1984u);
  // Tiny requests are clamped up to the 2-frame minimum (128 patterns).
  auto a10 = power::analyze(net, zd_options(10));
  EXPECT_EQ(a10.vectors_used, 128u);
  // Timed mode simulates the requested count exactly.
  power::AnalysisOptions timed;
  timed.mode = power::ActivityMode::Timed;
  timed.n_vectors = 100;
  EXPECT_EQ(power::analyze(net, timed).vectors_used, 100u);
}

// ---- flow / pass integration ----------------------------------------------

// The flows' incremental estimates against power::analyze of the circuit
// each stage report describes (tests/flow_audit.hpp).
TEST(FlowIncremental, CombinationalMatchesLegacyZeroDelay) {
  core::FlowOptions opt;
  opt.estimate_mode = power::ActivityMode::ZeroDelay;
  EXPECT_EQ(flow_audit::audit_flow(bench::alu(4), opt,
                                   core::optimize_combinational),
            "");
}

TEST(FlowIncremental, CombinationalMatchesLegacyTimed) {
  core::FlowOptions opt;  // Timed default
  opt.sim_vectors = 256;
  EXPECT_EQ(flow_audit::audit_flow(bench::carry_select_adder(8, 4), opt,
                                   core::optimize_combinational),
            "");
}

TEST(FlowIncremental, SequentialFlowMatchesLegacy) {
  auto net = bench::counter(6);
  core::FlowOptions opt;
  opt.estimate_mode = power::ActivityMode::ZeroDelay;
  opt.sim_vectors = 512;
  EXPECT_EQ(flow_audit::audit_flow(net, opt, core::optimize_sequential), "");
  // The gating stage ran (kept, reverted, or failed — but present).
  auto a = core::optimize_sequential(net, opt);
  EXPECT_EQ(a.stages.back().stage.rfind("selfloop-gate", 0), 0u);
}

TEST(FlowIncremental, LocalStageSavesFiveFoldNodeEvals) {
  core::metrics::reset();
  auto net = bench::array_multiplier(6);
  core::FlowOptions opt;
  opt.estimate_mode = power::ActivityMode::ZeroDelay;
  opt.sim_vectors = 512;  // the sizing transform's internal Timed run
  core::FlowResult res = core::optimize_combinational(net, opt);
  // At least one local-transform stage must re-simulate ≤ 1/5 of what a
  // full re-analysis evaluates.  The sizing stage is the extreme case:
  // size-only edits leave every value stream intact (resim_nodes == 0).
  bool found = false;
  for (const auto& s : res.stages) {
    if (s.full_nodes > 0 && 5 * s.resim_nodes <= s.full_nodes) found = true;
  }
  EXPECT_TRUE(found);
  // And the sizing stage specifically needs no re-simulation at all.
  for (const auto& s : res.stages) {
    if (s.stage.rfind("sizing", 0) == 0 && s.full_nodes > 0)
      EXPECT_EQ(s.resim_nodes, 0u) << s.stage;
  }
  // The metrics registry shows the cumulative saving.
  EXPECT_LT(core::metrics::value("power.inc.node_evals"),
            core::metrics::value("power.inc.node_evals_full"));
}

TEST(PassIncremental, EstimatesMatchLegacyAndSurviveRollback) {
  // No-op probe passes record a full power::analyze of the circuit between
  // the real passes; each pass's incremental estimate (the broken one's
  // after its rollback) must equal the probe that follows it.
  auto net = bench::alu(4);
  core::PassManager::Options opt;
  opt.estimate_power = true;
  opt.estimate.mode = power::ActivityMode::ZeroDelay;
  core::PassManager pm(opt);
  std::vector<double> probed;
  auto probe = [&] {
    pm.add("probe", [&probed, &opt](Netlist& n) {
      probed.push_back(
          power::analyze(n, opt.estimate).report.breakdown.total_w());
      return std::string("probed");
    });
  };
  probe();
  pm.add(core::make_dontcare_pass());
  probe();
  pm.add("broken", [](Netlist& n) -> std::string {
    n.remove(n.outputs()[0]);  // removing a PO driver breaks invariants
    return "boom";
  });
  probe();
  pm.add(core::make_sweep_pass());
  probe();
  auto rec = pm.run(net);

  ASSERT_EQ(rec.size(), 7u);
  ASSERT_EQ(probed.size(), 4u);
  for (std::size_t i = 1; i < rec.size(); i += 2) {
    EXPECT_EQ(rec[i].power_w, probed[(i + 1) / 2]) << rec[i].pass;
    EXPECT_EQ(rec[i + 1].power_w, probed[(i + 1) / 2]) << rec[i].pass;
  }
  EXPECT_EQ(rec[0].power_w, probed[0]);
  EXPECT_FALSE(rec[3].ok);  // the broken pass rolled back
  EXPECT_GT(rec[5].power_w, 0.0);
}

TEST(FsmFlow, GatedPowerReportedIdenticallyBothPaths) {
  auto stg = seq::counter_fsm(8);
  core::FlowOptions opt;
  opt.sim_vectors = 256;
  opt.estimate_mode = power::ActivityMode::ZeroDelay;
  EXPECT_EQ(flow_audit::audit_fsm(stg, opt), "");
  EXPECT_GT(core::optimize_fsm(stg, opt).power_gated_w, 0.0);
}

// The whole generated suite: one local mutation per circuit, exact equality.
TEST(Incremental, FullSuiteDifferential) {
  for (auto& [name, net0] : bench::default_suite()) {
    Netlist net = std::move(net0);
    auto ao = zd_options(512);
    power::IncrementalAnalyzer inc(net, ao);
    net.begin_undo();
    NodeId o = net.outputs()[0];
    if (!net.node(o).fanins.empty()) {
      net.replace_fanin(o, 0, net.add_not(net.add_not(net.node(o).fanins[0])));
    } else {
      net.add_output(net.add_not(o), "extra");
    }
    auto touched = net.touched_nodes();
    net.commit_undo();
    inc.reanalyze(touched);
    auto full = power::analyze(net, ao);
    EXPECT_EQ(inc.analysis().report.breakdown.total_w(),
              full.report.breakdown.total_w())
        << name;
    EXPECT_EQ(inc.analysis().report.weighted_activity,
              full.report.weighted_activity)
        << name;
  }
}

}  // namespace
