// Hybrid BDD→MUX extraction (logicopt/bdd_synth.hpp): soundness of every
// kept cone against the interpreter, cap/knob behavior, flow integration
// and worker-count identity, and the power estimators' degrade-to-
// simulation fallback when the BDD node budget is exceeded.

#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "core/flows.hpp"
#include "core/metrics.hpp"
#include "core/parallel.hpp"
#include "core/pass.hpp"
#include "logicopt/bdd_synth.hpp"
#include "netlist/benchmarks.hpp"
#include "power/probability.hpp"
#include "sim/logicsim.hpp"

namespace lps {
namespace {

std::vector<std::pair<std::string, Netlist>> family() {
  std::vector<std::pair<std::string, Netlist>> f;
  f.emplace_back("mult4", bench::array_multiplier(4));
  f.emplace_back("alu4", bench::alu(4));
  f.emplace_back("addsub8", bench::alu_addsub(8));
  f.emplace_back("dct8", bench::dct_butterfly(8));
  f.emplace_back("cmp8", bench::comparator_gt(8));
  f.emplace_back("csel16", bench::carry_select_adder(16, 4));
  return f;
}

// Every kept cone must be interpreter-exact: the mutated netlist computes
// the original function bit-for-bit, the invariants hold, and the engine
// itself reports zero proof failures.  Power never increases (losers are
// rolled back through the journal).
TEST(BddSynth, KeptConesAreInterpreterExact) {
  for (const auto& [name, orig] : family()) {
    Netlist net = strash(orig);
    auto r = logicopt::synthesize_bdd_cones(net);
    EXPECT_EQ(r.unsound, 0u) << name;
    EXPECT_TRUE(net.check().empty()) << name;
    EXPECT_TRUE(sim::equivalent_random(orig, net, 512, 23)) << name;
    EXPECT_LE(r.power_after_w, r.power_before_w) << name;
    EXPECT_GT(r.cones_examined, 0u) << name;
    EXPECT_EQ(r.cones_examined,
              r.kept + r.reverted + r.unsound + r.cones_capped +
                  r.cones_limited)
        << name;
  }
}

// The interpreter trace is taken once per run and re-checked only on power
// winners: on sound code it never changes a decision, so the run with the
// trace proof equals the run without it, kept cone for kept cone.
TEST(BddSynth, TraceProofOnWinnersKeepsTheSameCones) {
  std::size_t kept = 0;
  for (const auto& [name, orig] : family()) {
    Netlist proved = orig.clone(), unproved = orig.clone();
    logicopt::BddSynthOptions off;
    off.verify_frames = 0;
    auto rp = logicopt::synthesize_bdd_cones(proved);
    auto ru = logicopt::synthesize_bdd_cones(unproved, off);
    EXPECT_EQ(rp.kept, ru.kept) << name;
    EXPECT_EQ(rp.reverted, ru.reverted) << name;
    EXPECT_EQ(rp.unsound, 0u) << name;
    EXPECT_EQ(structural_hash(proved), structural_hash(unproved)) << name;
    kept += rp.kept;
  }
  EXPECT_GT(kept, 0u) << "no winner: the trace proof never ran";
}

// The engine never leaves journal epochs open or half-applied candidates:
// running inside a caller's epoch and rolling that epoch back restores the
// input circuit exactly.
TEST(BddSynth, NestsInsideCallerEpoch) {
  Netlist net = strash(bench::alu_addsub(8));
  std::uint64_t before = structural_hash(net);
  net.begin_undo();
  auto r = logicopt::synthesize_bdd_cones(net);
  EXPECT_GE(r.kept + r.reverted, 1u);
  net.rollback_undo();
  EXPECT_EQ(structural_hash(net), before);
}

TEST(BddSynth, SupportCapSkipsWideConesLoudly) {
  Netlist net = strash(bench::carry_select_adder(16, 4));  // 33 inputs
  logicopt::BddSynthOptions bo;
  bo.max_inputs = 4;
  auto r = logicopt::synthesize_bdd_cones(net, bo);
  EXPECT_GT(r.cones_capped, 0u);
  EXPECT_FALSE(r.note.empty());
  EXPECT_TRUE(net.check().empty());
}

TEST(BddSynth, EnvKnobsControlCapAndSifting) {
  ::setenv("LPS_BDD_SYNTH_MAX_INPUTS", "2", 1);
  ::setenv("LPS_BDD_SYNTH_SIFT", "0", 1);
  Netlist net = strash(bench::alu(4));  // 10 inputs: every cone is wider
  auto r = logicopt::synthesize_bdd_cones(net);
  ::unsetenv("LPS_BDD_SYNTH_MAX_INPUTS");
  ::unsetenv("LPS_BDD_SYNTH_SIFT");
  EXPECT_EQ(r.kept, 0u);
  EXPECT_EQ(r.cones_capped, r.cones_examined);
}

TEST(BddSynth, PassManagerIntegration) {
  Netlist net = strash(bench::alu_addsub(8));
  core::PassManager pm(/*verify=*/true);
  pm.add(core::make_bdd_synth_pass());
  auto records = pm.run(net);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_TRUE(core::all_ok(records));
  EXPECT_TRUE(records[0].verified);
  EXPECT_TRUE(net.check().empty());
}

// The flow with the bdd_synth stage is bit-identical at any pool thread
// count: every engine is serial, and the Monte Carlo estimates between
// stages shard by workload, never by thread count.
TEST(BddSynth, FlowIsBitIdenticalAcrossWorkerCounts) {
  const Netlist input = bench::alu_addsub(8);
  std::vector<std::uint64_t> hashes;
  std::vector<double> finals;
  for (unsigned threads : {1u, 4u}) {
    core::ScopedThreads pool(threads);
    auto res = core::optimize_combinational(input, core::FlowOptions{});
    bool saw_stage = false;
    for (const auto& s : res.stages)
      saw_stage |= s.stage.rfind("bdd_synth", 0) == 0;
    EXPECT_TRUE(saw_stage);
    EXPECT_TRUE(sim::equivalent_random(input, res.circuit, 512, 23));
    hashes.push_back(structural_hash(res.circuit));
    finals.push_back(res.stages.back().power_w);
  }
  EXPECT_EQ(hashes[0], hashes[1]);
  EXPECT_EQ(finals[0], finals[1]);
}

// ---- power-estimator degradation (satellite of the same substrate) -----

TEST(PowerFallback, SignalProbsDegradeToSimulationOnBddLimit) {
  Netlist net = bench::alu(4);
  core::metrics::reset();
  power::detail::force_bdd_limit(1);
  auto p = power::signal_probs_exact(net);
  std::vector<double> pip(net.inputs().size(), 0.5);
  auto ref = sim::measure_activity(net, 4096, 7, pip).signal_prob;
  ASSERT_EQ(p.size(), ref.size());
  for (std::size_t i = 0; i < p.size(); ++i) EXPECT_EQ(p[i], ref[i]) << i;
  EXPECT_EQ(core::metrics::value("power.exact.bdd_limit"), 1.0);
  // The forced failure is consumed: the next call is symbolic again and
  // agrees with the independent estimator on a tree-like circuit's PIs.
  auto p2 = power::signal_probs_exact(net);
  EXPECT_EQ(core::metrics::value("power.exact.bdd_limit"), 1.0);
  for (NodeId pi : net.inputs()) EXPECT_NEAR(p2[pi], 0.5, 1e-12);
}

TEST(PowerFallback, TransitionDensityDegradesToSimulationOnBddLimit) {
  Netlist net = bench::comparator_gt(4);
  core::metrics::reset();
  power::detail::force_bdd_limit(1);
  auto d = power::transition_density(net);
  std::vector<double> pip(net.inputs().size(), 0.5);
  auto ref = sim::measure_activity(net, 4096, 7, pip).transition_prob;
  ASSERT_EQ(d.size(), ref.size());
  for (std::size_t i = 0; i < d.size(); ++i) EXPECT_EQ(d[i], ref[i]) << i;
  EXPECT_EQ(core::metrics::value("power.exact.bdd_limit"), 1.0);
}

}  // namespace
}  // namespace lps
