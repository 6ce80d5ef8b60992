// Core facade tests: pass manager, reporting, end-to-end flows.

#include <gtest/gtest.h>

#include <sstream>

#include "core/flows.hpp"
#include "core/metrics.hpp"
#include "core/pass.hpp"
#include "core/report.hpp"
#include "netlist/benchmarks.hpp"
#include "seq/stg.hpp"
#include "sim/logicsim.hpp"

namespace lps::core {
namespace {

TEST(PassManager, RunsAndVerifies) {
  auto net = bench::carry_select_adder(8, 2);
  PassManager pm(/*verify=*/true);
  pm.add(make_strash_pass());
  pm.add(make_sweep_pass());
  pm.add(make_dontcare_pass());
  pm.add(make_balance_pass());
  auto records = pm.run(net);
  ASSERT_EQ(records.size(), 4u);
  for (const auto& r : records) {
    EXPECT_TRUE(r.verified) << r.pass;
    EXPECT_FALSE(r.summary.empty()) << r.pass;
  }
  EXPECT_EQ(net.check(), "");
}

// A don't-care pass stopped by its BDD budget or rewrite cap says so in
// its summary instead of reading like a fixpoint.
TEST(PassManager, DontCareSummaryReportsEarlyStops) {
  auto run = [](logicopt::DontCareOptions opt) {
    auto net = bench::alu(4);
    PassManager pm(/*verify=*/true);
    pm.add(make_dontcare_pass(opt));
    auto records = pm.run(net);
    EXPECT_TRUE(records.at(0).verified);
    return records.at(0).summary;
  };
  auto fixpoint = run({});
  EXPECT_EQ(fixpoint.find("stopped"), std::string::npos) << fixpoint;
  logicopt::DontCareOptions tiny;
  tiny.bdd_limit = 8;
  auto limited = run(tiny);
  EXPECT_NE(limited.find("stopped at bdd_limit"), std::string::npos)
      << limited;
  EXPECT_EQ(limited.find("max_rewrites"), std::string::npos) << limited;
  logicopt::DontCareOptions one;
  one.max_rewrites = 1;
  auto capped = run(one);
  EXPECT_NE(capped.find("stopped at max_rewrites"), std::string::npos)
      << capped;
  EXPECT_EQ(capped.find("bdd_limit"), std::string::npos) << capped;
}

TEST(PassManager, RollsBackFunctionBreakingPassAndContinues) {
  auto net = bench::c17();
  auto golden = net.clone();
  PassManager pm(true);
  pm.add(make_strash_pass());
  pm.add("saboteur", [](Netlist& n) {
    // Flip an output by inserting an inverter.
    NodeId out = n.outputs()[0];
    NodeId inv = n.add_not(out);
    n.substitute(out, inv);
    // substitute() would also rewire the inverter's own fanin; repair the
    // self-loop it creates by reconnecting to a PI: deliberately broken
    // logic is fine, we just need a function change.
    return std::string("flipped an output");
  });
  pm.add(make_sweep_pass());
  auto records = pm.run(net);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_TRUE(records[0].ok);
  EXPECT_FALSE(records[1].ok);
  EXPECT_TRUE(records[1].rolled_back);
  EXPECT_NE(records[1].diag.message.find("saboteur"), std::string::npos);
  // The broken pass was contained: later passes still ran and the final
  // circuit is equivalent to the input.
  EXPECT_TRUE(records[2].ok);
  EXPECT_FALSE(all_ok(records));
  EXPECT_EQ(net.check(), "");
  EXPECT_TRUE(sim::equivalent_random(golden, net, 1024, 99));
}

TEST(PassManager, StrictModeStillThrows) {
  auto net = bench::c17();
  PassManager::Options opt;
  opt.rollback = false;
  PassManager pm(opt);
  pm.add("saboteur", [](Netlist& n) {
    NodeId out = n.outputs()[0];
    NodeId inv = n.add_not(out);
    n.substitute(out, inv);
    return std::string("flipped an output");
  });
  EXPECT_THROW(pm.run(net), diag::CheckError);
}

TEST(PassManager, RollsBackThrowingPass) {
  auto net = bench::c17();
  auto golden = net.clone();
  PassManager pm(true);
  pm.add("bomb", [](Netlist& n) -> std::string {
    n.add_not(n.outputs()[0]);  // half-done rewrite, then...
    throw std::runtime_error("boom");
  });
  pm.add(make_strash_pass());
  auto records = pm.run(net);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_FALSE(records[0].ok);
  EXPECT_TRUE(records[0].rolled_back);
  EXPECT_NE(records[0].diag.message.find("boom"), std::string::npos);
  EXPECT_TRUE(records[1].ok);
  EXPECT_TRUE(sim::equivalent_random(golden, net, 1024, 99));
}

TEST(PassManager, StrayEpochsAreAbsorbedCheckedAndUnwound) {
  // Passes that return with two inner undo epochs still open.  The guard
  // absorbs both into the pass epoch (counted as pass.stray_epochs), still
  // verifies the result, and unwinds a function change made inside them
  // in full.  The flow stage loop runs on the same guard.
  auto net = bench::c17();
  const std::uint64_t h0 = structural_hash(net);
  PassManager pm(true);
  pm.add("leaky-saboteur", [](Netlist& n) {
    n.begin_undo();
    NodeId out = n.outputs()[0];
    n.substitute(out, n.add_not(out));
    n.begin_undo();
    n.add_not(n.inputs()[0]);
    return std::string("flipped an output inside two open epochs");
  });
  const double stray0 = metrics::value("pass.stray_epochs");
  auto records = pm.run(net);
  EXPECT_EQ(metrics::value("pass.stray_epochs") - stray0, 2.0);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_FALSE(records[0].ok);
  EXPECT_TRUE(records[0].rolled_back);
  EXPECT_NE(records[0].diag.message.find("changed circuit function"),
            std::string::npos);
  EXPECT_EQ(net.undo_depth(), 0u);
  EXPECT_EQ(structural_hash(net), h0);
  EXPECT_EQ(net.check(), "");

  // A function-preserving leaky pass is kept, with the journal closed.
  PassManager keep(true);
  keep.add("leaky-noop", [](Netlist& n) {
    n.begin_undo();
    n.begin_undo();
    n.add_not(n.inputs()[0]);  // dead logic: function unchanged
    return std::string("two epochs left open");
  });
  const double stray1 = metrics::value("pass.stray_epochs");
  records = keep.run(net);
  EXPECT_EQ(metrics::value("pass.stray_epochs") - stray1, 2.0);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_TRUE(records[0].ok);
  EXPECT_TRUE(records[0].verified);
  EXPECT_EQ(net.undo_depth(), 0u);
}

TEST(Report, TableAligns) {
  Table t({"circuit", "power"});
  t.row({"c17", Table::num(1.5)});
  t.row({"a-very-long-name", Table::pct(0.123)});
  std::ostringstream os;
  t.print(os);
  auto s = os.str();
  EXPECT_NE(s.find("c17"), std::string::npos);
  EXPECT_NE(s.find("12.3%"), std::string::npos);
  EXPECT_NE(s.find("|--"), std::string::npos);
}

TEST(Report, NumGoldenStrings) {
  EXPECT_EQ(Table::num(1.5), "1.500");
  EXPECT_EQ(Table::num(1.5, 1), "1.5");
  EXPECT_EQ(Table::num(2.0, 0), "2");
  EXPECT_EQ(Table::num(-0.25, 2), "-0.25");
  EXPECT_EQ(Table::num(0.1234, 2), "0.12");
  EXPECT_EQ(Table::num(1234.5678, 1), "1234.6");
  EXPECT_EQ(Table::num(0.0, 3), "0.000");
}

TEST(Report, PctGoldenStrings) {
  EXPECT_EQ(Table::pct(0.123), "12.3%");
  EXPECT_EQ(Table::pct(1.0, 2), "100.00%");
  EXPECT_EQ(Table::pct(-0.05, 0), "-5%");
  EXPECT_EQ(Table::pct(0.0), "0.0%");
  EXPECT_EQ(Table::pct(0.004, 1), "0.4%");
}

TEST(Report, PrintPadsMixedWidthCellsToEqualLineLengths) {
  Table t({"x", "a-much-wider-header"});
  t.row({"short", "1"});
  t.row({"a-longer-cell-than-header", "22.5"});
  std::ostringstream os;
  t.print(os);
  std::istringstream in(os.str());
  std::string line;
  std::size_t width = 0;
  while (std::getline(in, line)) {
    // Cell rows end "| ", the separator row ends "|"; compare modulo
    // trailing whitespace.
    while (!line.empty() && line.back() == ' ') line.pop_back();
    if (width == 0) width = line.size();
    EXPECT_EQ(line.size(), width) << "misaligned row: " << line;
  }
  EXPECT_GT(width, 0u);
}

// saving() must be computed against the last *kept* stage — a trailing
// reverted or failed stage reports the power of the circuit that was rolled
// back, not the circuit the flow returns.
TEST(Flows, SavingIgnoresTrailingRevertedStage) {
  FlowResult r;
  r.stages.push_back({"input", 10e-6, 0.0, 20, 8, "kept", ""});
  r.stages.push_back({"strash", 8e-6, 0.0, 18, 8, "kept", ""});
  r.stages.push_back({"resynth", 12e-6, 0.0, 18, 8, "reverted", ""});
  ASSERT_NE(r.last_kept_stage(), nullptr);
  EXPECT_EQ(r.last_kept_stage()->stage, "strash");
  EXPECT_NEAR(r.saving(), 0.2, 1e-12);
}

TEST(Flows, SavingIgnoresTrailingFailedStage) {
  FlowResult r;
  r.stages.push_back({"input", 10e-6, 0.0, 20, 8, "kept", ""});
  r.stages.push_back({"balance", 7e-6, 0.0, 20, 6, "kept", ""});
  r.stages.push_back({"sizing", 10e-6, 0.0, 20, 6, "failed", "threw"});
  EXPECT_NEAR(r.saving(), 0.3, 1e-12);
}

TEST(Flows, SavingIsZeroWithoutAKeptStageOrBaseline) {
  FlowResult all_reverted;
  all_reverted.stages.push_back({"input", 10e-6, 0.0, 20, 8, "reverted", ""});
  all_reverted.stages.push_back({"strash", 12e-6, 0.0, 20, 8, "reverted", ""});
  EXPECT_EQ(all_reverted.last_kept_stage(), nullptr);
  EXPECT_EQ(all_reverted.saving(), 0.0);

  FlowResult zero_baseline;
  zero_baseline.stages.push_back({"input", 0.0, 0.0, 0, 0, "kept", ""});
  zero_baseline.stages.push_back({"strash", 0.0, 0.0, 0, 0, "kept", ""});
  EXPECT_EQ(zero_baseline.saving(), 0.0);

  FlowResult too_short;
  too_short.stages.push_back({"input", 10e-6, 0.0, 20, 8, "kept", ""});
  EXPECT_EQ(too_short.saving(), 0.0);
}

TEST(Flows, RealFlowStagesCarryAStatus) {
  auto net = bench::array_multiplier(4);
  FlowOptions opt;
  opt.sim_vectors = 256;
  auto r = optimize_combinational(net, opt);
  for (const auto& s : r.stages) {
    EXPECT_TRUE(s.status == "kept" || s.status == "reverted" ||
                s.status == "failed")
        << s.stage << " has status '" << s.status << "'";
  }
  EXPECT_EQ(r.stages.front().status, "kept");  // input row is the baseline
}

TEST(Flows, StageNamesCarryNoStatusSuffix) {
  // The outcome lives in `status` alone; a stage keeps its bare name
  // whether it was kept, reverted or failed.
  auto net = bench::array_multiplier(4);
  FlowOptions opt;
  opt.sim_vectors = 256;
  auto r = optimize_combinational(net, opt);
  std::size_t not_kept = 0;
  for (const auto& s : r.stages) {
    EXPECT_EQ(s.stage.find('('), std::string::npos) << s.stage;
    not_kept += s.status != "kept";
  }
  EXPECT_GT(not_kept, 0u) << "no reverted stage: the check above is vacuous";
}

TEST(Flows, CombinationalFlowNeverHurtsAndUsuallySaves) {
  auto net = bench::array_multiplier(4);
  FlowOptions opt;
  opt.sim_vectors = 512;
  auto r = optimize_combinational(net, opt);
  ASSERT_GE(r.stages.size(), 4u);
  // The flow measures each stage and reverts losers, so the result can
  // never be worse than the strash baseline; on a glitch-heavy multiplier
  // it should strictly improve.
  EXPECT_GE(r.saving(), 0.0);
  EXPECT_TRUE(sim::equivalent_random(net, r.circuit, 256, 3));
  double glitch_in = r.stages.front().glitch_fraction;
  double glitch_out = r.stages.back().glitch_fraction;
  EXPECT_LE(glitch_out, glitch_in + 1e-9);
}

TEST(Flows, StagesAreLabelled) {
  auto net = bench::comparator_gt(6);
  FlowOptions opt;
  opt.sim_vectors = 256;
  opt.run_sizing = false;
  auto r = optimize_combinational(net, opt);
  EXPECT_EQ(r.stages.front().stage, "input");
  EXPECT_EQ(r.stages[1].stage, "strash");
}

TEST(Flows, FsmFlowImprovesSwitching) {
  auto stg = seq::counter_fsm(12);
  FlowOptions opt;
  opt.sim_vectors = 512;
  auto r = optimize_fsm(stg, opt);
  EXPECT_LT(r.wswitch_lowpower, r.wswitch_binary);
  EXPECT_GT(r.clock_saving_fraction, -1.0);  // defined
  EXPECT_EQ(r.circuit.check(), "");
}

}  // namespace
}  // namespace lps::core
