// test_compiled.cpp — compiled-tape simulation differential suite.
//
// The contract under test (sim/compiled.hpp): CompiledSim is a pure
// performance substitution for LogicSim — every frame it evaluates, every
// activity counter derived from it, and every cone splice through it must
// be bit-identical to the interpreted engine's, at any blocking factor and
// any thread count.  The suite drives both engines over the benchmark
// circuits (including the shapes the tape specializes: 2-input gates,
// constants, MUXes, >64-fanin folds, load-enabled registers) against the
// LogicSim reference (sim::measure_activity_reference), patches the
// tape through mutation undo epochs, and pins the SimOptions plumbing.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <stdexcept>
#include <vector>

#include "core/flows.hpp"
#include "core/parallel.hpp"
#include "flow_audit.hpp"
#include "netlist/benchmarks.hpp"
#include "power/incremental.hpp"
#include "sim/compiled.hpp"
#include "sim/logicsim.hpp"

namespace {

using namespace lps;

sim::SimOptions compiled_opts(std::size_t block = 8) {
  sim::SimOptions o;
  o.block = block;
  return o;
}

// Per-engine activity measurement of the same workload: the tape, or the
// LogicSim reference (sim::measure_activity_reference).
sim::ActivityStats measure_with(const Netlist& net, bool compiled,
                                std::size_t frames, std::uint64_t seed,
                                std::size_t block = 8,
                                sim::ActivityTrace* cap = nullptr) {
  if (!compiled)
    return sim::measure_activity_reference(net, frames, seed, {}, cap);
  sim::ScopedSimOptions guard(compiled_opts(block));
  return sim::measure_activity(net, frames, seed, {}, cap);
}

void expect_stats_identical(const sim::ActivityStats& a,
                            const sim::ActivityStats& b) {
  ASSERT_EQ(a.patterns, b.patterns);
  ASSERT_EQ(a.signal_prob.size(), b.signal_prob.size());
  for (std::size_t i = 0; i < a.signal_prob.size(); ++i) {
    EXPECT_EQ(a.signal_prob[i], b.signal_prob[i]) << "node " << i;
    EXPECT_EQ(a.transition_prob[i], b.transition_prob[i]) << "node " << i;
  }
}

// ---- frame-level equality -------------------------------------------------

TEST(Compiled, EvalIntoMatchesLogicSimOnSuite) {
  for (auto& [name, net] : bench::default_suite()) {
    sim::LogicSim ref(net);
    sim::CompiledSim cs(net);
    std::mt19937_64 rng(7);
    std::vector<std::uint64_t> pi(net.inputs().size());
    sim::Frame fa, fb;
    for (int round = 0; round < 8; ++round) {
      for (auto& w : pi) w = rng();
      ref.eval_into(fa, pi);
      cs.eval_into(fb, pi);
      ASSERT_EQ(fa, fb) << name << " round " << round;
    }
  }
}

TEST(Compiled, ExecAllBlockedMatchesPerFrameEval) {
  // One tape replay over B lanes must equal B independent eval_into calls,
  // for every supported blocking factor.
  auto net = bench::alu(4);
  sim::LogicSim ref(net);
  sim::CompiledSim cs(net);
  for (std::size_t B : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                        std::size_t{8}, std::size_t{16}}) {
    std::mt19937_64 rng(11);
    std::vector<std::uint64_t> val(net.size() * B, 0);
    std::vector<std::vector<std::uint64_t>> pis(
        B, std::vector<std::uint64_t>(net.inputs().size()));
    for (std::size_t j = 0; j < B; ++j)
      for (auto& w : pis[j]) w = rng();
    for (std::size_t j = 0; j < B; ++j)
      for (std::size_t i = 0; i < net.inputs().size(); ++i)
        val[static_cast<std::size_t>(net.inputs()[i]) * B + j] = pis[j][i];
    cs.exec_all(val.data(), B);
    sim::Frame f;
    for (std::size_t j = 0; j < B; ++j) {
      ref.eval_into(f, pis[j]);
      for (NodeId id = 0; id < net.size(); ++id)
        ASSERT_EQ(f[id], val[static_cast<std::size_t>(id) * B + j])
            << "B=" << B << " lane " << j << " node " << id;
    }
  }
}

TEST(Compiled, WideGatesConstantsAndMux) {
  // >64-fanin folds take the n-ary opcodes and, interpreted, the heap
  // scratch path of eval_gate_word; constants and MUX have dedicated
  // opcodes.  All must agree with eval_gate exactly.
  Netlist net("wide");
  std::vector<NodeId> pis;
  for (int i = 0; i < 100; ++i)
    pis.push_back(net.add_input("i" + std::to_string(i)));
  NodeId c0 = net.add_const(false);
  NodeId c1 = net.add_const(true);
  for (GateType t : {GateType::And, GateType::Or, GateType::Nand,
                     GateType::Nor, GateType::Xor, GateType::Xnor}) {
    std::vector<NodeId> fi = pis;  // 100 fanins: exceeds the stack buffer
    net.add_output(net.add_gate(t, std::move(fi)),
                   std::string("w") + std::to_string(static_cast<int>(t)));
  }
  net.add_output(net.add_mux(pis[0], pis[1], c0), "m0");
  net.add_output(net.add_mux(pis[2], c1, pis[3]), "m1");
  net.add_output(net.add_buf(c0), "b0");
  net.add_output(net.add_not(c1), "n1");

  sim::LogicSim ref(net);
  sim::CompiledSim cs(net);
  std::mt19937_64 rng(13);
  std::vector<std::uint64_t> pi(net.inputs().size());
  sim::Frame fa, fb;
  for (int round = 0; round < 16; ++round) {
    for (auto& w : pi) w = rng();
    ref.eval_into(fa, pi);
    cs.eval_into(fb, pi);
    ASSERT_EQ(fa, fb) << "round " << round;
  }

  auto a = measure_with(net, false, 64, 5);
  auto b = measure_with(net, true, 64, 5);
  expect_stats_identical(a, b);
}

// ---- activity-driver equality --------------------------------------------

TEST(Compiled, MeasureActivityIdenticalAcrossSuite) {
  for (auto& [name, net] : bench::default_suite()) {
    auto interp = measure_with(net, false, 128, 42);
    for (std::size_t B : {std::size_t{1}, std::size_t{4}, std::size_t{8},
                          std::size_t{16}}) {
      auto comp = measure_with(net, true, 128, 42, B);
      SCOPED_TRACE(name + " B=" + std::to_string(B));
      expect_stats_identical(interp, comp);
    }
  }
}

TEST(Compiled, SequentialAndLoadEnabledDffsIdentical) {
  for (int n : {4, 8}) {
    auto net = bench::counter(n);
    expect_stats_identical(measure_with(net, false, 96, 3),
                           measure_with(net, true, 96, 3));
  }
  // Load-enabled register bank: EN recirculation must match exactly.
  Netlist net("le");
  NodeId d0 = net.add_input("d0");
  NodeId d1 = net.add_input("d1");
  NodeId en = net.add_input("en");
  NodeId q0 = net.add_dff(d0, /*init=*/true, "q0");
  NodeId q1 = net.add_dff(net.add_xor(d1, q0), false, "q1");
  net.set_dff_enable(q0, en);
  net.set_dff_enable(q1, net.add_not(en));
  net.add_output(net.add_and(q0, q1), "o");
  expect_stats_identical(measure_with(net, false, 64, 17),
                         measure_with(net, true, 64, 17));
}

TEST(Compiled, TraceCaptureIdentical) {
  // The captured per-frame matrix feeds incremental splicing — it must be
  // word-for-word identical, dead slots included.
  auto net = bench::array_multiplier(4);
  sim::ActivityTrace ta, tb;
  measure_with(net, false, 128, 9, 8, &ta);
  measure_with(net, true, 128, 9, 8, &tb);
  ASSERT_EQ(ta.frames.size(), tb.frames.size());
  for (std::size_t fr = 0; fr < ta.frames.size(); ++fr)
    ASSERT_EQ(ta.frames[fr], tb.frames[fr]) << "frame " << fr;
  EXPECT_EQ(ta.ones, tb.ones);
  EXPECT_EQ(ta.toggles, tb.toggles);
  EXPECT_EQ(ta.shard_start, tb.shard_start);
  EXPECT_EQ(ta.patterns, tb.patterns);
  EXPECT_EQ(ta.seam_patterns, tb.seam_patterns);
}

TEST(Compiled, ThreadCountInvariance) {
  // Bit-identical at 1/2/4/8 threads with the compiled engine — the PR 2
  // determinism contract survives the chunked dispatch grain.
  auto net = bench::random_dag(24, 600, 77);
  sim::ScopedSimOptions guard(compiled_opts());
  std::vector<sim::ActivityStats> runs;
  for (unsigned t : {1u, 2u, 4u, 8u}) {
    core::ScopedThreads st(t);
    runs.push_back(sim::measure_activity(net, 512, 23));
  }
  for (std::size_t i = 1; i < runs.size(); ++i)
    expect_stats_identical(runs[0], runs[i]);
  // And interpreted == compiled at a non-trivial thread count.
  {
    core::ScopedThreads st(4);
    expect_stats_identical(sim::measure_activity_reference(net, 512, 23),
                           runs[0]);
  }
}

TEST(Compiled, TimedActivityThreadInvariance) {
  // The chunked EventSim grain must keep timed counts thread-invariant.
  auto net = bench::carry_select_adder(8, 2);
  std::vector<sim::TimedStats> runs;
  for (unsigned t : {1u, 2u, 4u}) {
    core::ScopedThreads st(t);
    runs.push_back(sim::measure_timed_activity(net, 4096, 5));
  }
  for (std::size_t i = 1; i < runs.size(); ++i) {
    EXPECT_EQ(runs[0].vectors, runs[i].vectors);
    EXPECT_EQ(runs[0].total_toggles, runs[i].total_toggles);
    EXPECT_EQ(runs[0].functional_toggles, runs[i].functional_toggles);
  }
}

// ---- tape patching through mutation epochs --------------------------------

// Journaled local rewrite: double-inverter splice ahead of a PO driver.
Netlist::TouchedNodes splice_po_driver(Netlist& net) {
  net.begin_undo();
  NodeId o = net.outputs()[0];
  net.replace_fanin(o, 0, net.add_not(net.add_not(net.node(o).fanins[0])));
  auto touched = net.touched_nodes();
  net.commit_undo();
  return touched;
}

TEST(Compiled, UpdatePatchesTapeAfterMutation) {
  auto net = bench::alu(4);
  sim::CompiledSim cs(net);
  EXPECT_TRUE(cs.compact());
  auto touched = splice_po_driver(net);
  cs.update(touched);
  EXPECT_FALSE(cs.compact());
  // Patched-tape full evaluation must equal a freshly compiled netlist's.
  sim::CompiledSim fresh(net);
  std::mt19937_64 rng(3);
  std::vector<std::uint64_t> pi(net.inputs().size());
  sim::Frame fa, fb;
  for (int round = 0; round < 8; ++round) {
    for (auto& w : pi) w = rng();
    cs.eval_into(fa, pi);
    fresh.eval_into(fb, pi);
    ASSERT_EQ(fa, fb) << "round " << round;
  }
  EXPECT_THROW(cs.exec_all(fa.data(), 1), std::logic_error);
  cs.rebuild();
  EXPECT_TRUE(cs.compact());
}

TEST(Compiled, ConeSliceAfterMutationMatchesFullEval) {
  // Patch the tape, then re-evaluate only the mutation's fanout cone inside
  // a stale frame: the splice must reproduce a full fresh evaluation.
  auto net = bench::array_multiplier(4);
  sim::CompiledSim cs(net);
  std::mt19937_64 rng(19);
  std::vector<std::uint64_t> pi(net.inputs().size());
  for (auto& w : pi) w = rng();
  sim::Frame f;
  cs.eval_into(f, pi);

  auto touched = splice_po_driver(net);
  cs.update(touched);
  f.resize(net.size(), 0);  // appended nodes start as zero slots
  auto mask = net.fanout_cone_of(touched.value_roots, true);
  auto sched = cs.cone_schedule(mask);
  EXPECT_GT(sched.gates.size(), 0u);
  cs.exec_gates(f.data(), 1, sched.gates);

  sim::LogicSim ref(net);
  sim::Frame full;
  ref.eval_into(full, pi);
  ASSERT_EQ(f, full);
}

TEST(Compiled, RevertToRestoresPreMutationTape) {
  auto net = bench::comparator_gt(8);
  sim::CompiledSim cs(net);
  const std::size_t old_size = net.size();
  std::mt19937_64 rng(29);
  std::vector<std::uint64_t> pi(net.inputs().size());
  for (auto& w : pi) w = rng();
  sim::Frame before;
  cs.eval_into(before, pi);

  net.begin_undo();
  NodeId o = net.outputs()[0];
  net.replace_fanin(o, 0, net.add_not(net.add_not(net.node(o).fanins[0])));
  auto touched = net.touched_nodes();
  net.rollback_undo();
  cs.revert_to(old_size, touched.value_roots);

  sim::Frame after;
  cs.eval_into(after, pi);
  ASSERT_EQ(before, after);
}

TEST(Compiled, GarbageBoundTriggersRebuild) {
  auto net = bench::c17();
  sim::CompiledSim cs(net);
  const std::size_t base = cs.tape_words();
  for (int i = 0; i < 2000; ++i) {
    auto touched = splice_po_driver(net);
    cs.update(touched);
  }
  // The bound keeps total words within 2x the (growing) compact program.
  EXPECT_LE(cs.tape_words(), 2 * std::max<std::size_t>(cs.records() * 8, 256));
  EXPECT_GT(cs.tape_words(), base);
  sim::CompiledSim fresh(net);
  std::mt19937_64 rng(31);
  std::vector<std::uint64_t> pi(net.inputs().size());
  sim::Frame fa, fb;
  for (int round = 0; round < 4; ++round) {
    for (auto& w : pi) w = rng();
    cs.eval_into(fa, pi);
    fresh.eval_into(fb, pi);
    ASSERT_EQ(fa, fb);
  }
}

// ---- incremental-analyzer integration ------------------------------------

TEST(Compiled, IncrementalReanalyzeIdenticalAcrossEngines) {
  for (auto& [name, base] : bench::default_suite()) {
    SCOPED_TRACE(name);
    power::AnalysisOptions ao;
    ao.mode = power::ActivityMode::ZeroDelay;
    ao.n_vectors = 1024;

    // The interpreter cone path is the tape-failure fallback: force the
    // tape patch to fail so inc_i's update runs through LogicSim.
    Netlist net_c = base, net_i = base;
    sim::ScopedSimOptions gc(compiled_opts());
    power::IncrementalAnalyzer inc_c(net_c, ao);
    {
      power::IncrementalAnalyzer inc_i(net_i, ao);
      auto tc = splice_po_driver(net_c);
      auto ti = splice_po_driver(net_i);
      inc_c.reanalyze(tc);
      power::detail::force_tape_failures(1);
      inc_i.reanalyze(ti);
      power::detail::force_tape_failures(0);
      EXPECT_TRUE(inc_i.last_update().tape_fallback);
      EXPECT_FALSE(inc_c.last_update().tape_fallback);
      EXPECT_EQ(inc_c.analysis().toggles_per_cycle,
                inc_i.analysis().toggles_per_cycle);
      EXPECT_EQ(inc_c.analysis().report.breakdown.switching_w,
                inc_i.analysis().report.breakdown.switching_w);
      EXPECT_EQ(inc_c.analysis().report.weighted_activity,
                inc_i.analysis().report.weighted_activity);
    }
    // Compiled incremental == fresh full analyze of the mutated net.
    auto full = power::analyze(net_c, ao);
    EXPECT_EQ(inc_c.analysis().toggles_per_cycle, full.toggles_per_cycle);
    EXPECT_EQ(inc_c.analysis().report.breakdown.switching_w,
              full.report.breakdown.switching_w);
  }
}

TEST(Compiled, IncrementalRevertRestoresTapeAndAnalysis) {
  auto net = bench::alu(4);
  power::AnalysisOptions ao;
  ao.mode = power::ActivityMode::ZeroDelay;
  ao.n_vectors = 1024;
  sim::ScopedSimOptions guard(compiled_opts());
  power::IncrementalAnalyzer inc(net, ao);
  auto before = inc.analysis();

  net.begin_undo();
  NodeId o = net.outputs()[0];
  net.replace_fanin(o, 0, net.add_not(net.add_not(net.node(o).fanins[0])));
  auto touched = net.touched_nodes();
  inc.reanalyze(touched);
  net.rollback_undo();
  inc.revert_last();

  EXPECT_EQ(before.toggles_per_cycle, inc.analysis().toggles_per_cycle);
  EXPECT_EQ(before.report.breakdown.switching_w,
            inc.analysis().report.breakdown.switching_w);

  // The reverted tape must keep estimating correctly for the next epoch.
  auto touched2 = splice_po_driver(net);
  inc.reanalyze(touched2);
  auto full = power::analyze(net, ao);
  EXPECT_EQ(inc.analysis().toggles_per_cycle, full.toggles_per_cycle);
}

TEST(Compiled, FlowResultsIdenticalAcrossEngines) {
  // End-to-end: every estimate the flow reports on the tape (which gates
  // its accept/revert decisions) must equal a full power::analyze of the
  // circuit it describes (tests/flow_audit.hpp).
  core::FlowOptions fo;
  fo.sim_vectors = 512;
  sim::ScopedSimOptions g(compiled_opts());
  EXPECT_EQ(flow_audit::audit_flow(bench::alu(4), fo,
                                   core::optimize_combinational),
            "");
}

// ---- options plumbing -----------------------------------------------------

TEST(Compiled, NormalizeBlockAndScopedOptions) {
  EXPECT_EQ(sim::normalize_block(0), 1u);
  EXPECT_EQ(sim::normalize_block(1), 1u);
  EXPECT_EQ(sim::normalize_block(3), 2u);
  EXPECT_EQ(sim::normalize_block(5), 4u);
  EXPECT_EQ(sim::normalize_block(8), 8u);
  EXPECT_EQ(sim::normalize_block(15), 8u);
  EXPECT_EQ(sim::normalize_block(64), 16u);

  const sim::SimOptions saved = sim::sim_options();
  {
    sim::ScopedSimOptions g(compiled_opts(2));
    EXPECT_EQ(sim::sim_options().block, 2u);
  }
  EXPECT_EQ(sim::sim_options().block, saved.block);
}

TEST(Compiled, ExecAllRejectsBadBlockAndPatchedTape) {
  auto net = bench::c17();
  sim::CompiledSim cs(net);
  std::vector<std::uint64_t> val(net.size() * 3, 0);
  EXPECT_THROW(cs.exec_all(val.data(), 3), std::invalid_argument);
  EXPECT_THROW(cs.exec_gates(val.data(), 5, {}), std::invalid_argument);
}

}  // namespace
