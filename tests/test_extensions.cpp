// Tests for the extension modules: two-level minimization, power-aware
// technology decomposition, sequence-based power estimation, additive
// macro-model error.

#include <gtest/gtest.h>

#include <random>

#include "arch/macromodel.hpp"
#include "bdd/bdd_netlist.hpp"
#include "core/metrics.hpp"
#include "logicopt/decompose_power.hpp"
#include "logicopt/resynth.hpp"
#include "netlist/benchmarks.hpp"
#include "power/activity.hpp"
#include "sim/logicsim.hpp"
#include "sop/division.hpp"
#include "sop/minimize.hpp"

namespace lps {
namespace {

using sop::Cube;
using sop::Sop;

TEST(Minimize, Tautology) {
  EXPECT_FALSE(sop::tautology(Sop::parse(2, "11")));
  EXPECT_TRUE(sop::tautology(Sop::parse(1, "1 + 0")));
  EXPECT_TRUE(sop::tautology(Sop::parse(2, "1- + 0-")));
  EXPECT_TRUE(sop::tautology(Sop::parse(2, "11 + 10 + 0-")));
  EXPECT_FALSE(sop::tautology(Sop::parse(2, "11 + 00")));
  EXPECT_FALSE(sop::tautology(Sop(3)));  // empty = constant 0
}

TEST(Minimize, CubeCovered) {
  Sop f = Sop::parse(3, "1-- + -1-");
  EXPECT_TRUE(sop::cube_covered(Cube::parse("11-"), f));
  EXPECT_TRUE(sop::cube_covered(Cube::parse("1-0"), f));
  EXPECT_FALSE(sop::cube_covered(Cube::parse("0-1"), f));
  // The two cubes together cover 10- and 01- but not 00-.
  EXPECT_FALSE(sop::cube_covered(Cube::parse("00-"), f));
}

// The minterm-table containment check (up to 12 variables) answers exactly
// what the cofactor-tautology recursion answers.
TEST(Minimize, TableContainmentMatchesCofactorRecursion) {
  std::mt19937 rng(2024);
  // Each variable gets a literal with probability `density`/8.
  auto random_cube = [&](unsigned n, unsigned density) {
    Cube c(n);
    for (unsigned v = 0; v < n; ++v)
      if (rng() % 8 < density) {
        if (rng() & 1)
          c.set_pos(v);
        else
          c.set_neg(v);
      }
    return c;
  };
  auto agree = [](const Cube& c, const Sop& f) {
    return sop::cube_covered(c, f) == sop::cube_covered_by_cofactors(c, f);
  };
  int covered = 0;
  for (unsigned n = 1; n <= 12; ++n) {
    for (int trial = 0; trial < 40; ++trial) {
      Sop f(n);
      int m = static_cast<int>(rng() % 16);  // 0 = the empty SOP
      unsigned density = 1 + rng() % 5;
      for (int i = 0; i < m; ++i) f.add_cube(random_cube(n, density));
      for (int q = 0; q < 8; ++q) {
        Cube c = random_cube(n, 1 + rng() % 7);
        EXPECT_TRUE(agree(c, f)) << "n=" << n << " c=" << c.to_string()
                                 << " f=" << f.to_string();
        covered += sop::cube_covered(c, f);
      }
      // A cube split on one variable is covered by its two halves and not
      // by either half alone — across the in-word / word-index boundary
      // (variables 5 and 6) too.
      unsigned v = static_cast<unsigned>(rng() % n);
      Cube c = random_cube(n, 3);
      c.clear_var(v);
      Cube hi = c, lo = c;
      hi.set_pos(v);
      lo.set_neg(v);
      Sop halves(n, {hi, lo});
      EXPECT_TRUE(sop::cube_covered(c, halves)) << "n=" << n << " v=" << v;
      EXPECT_FALSE(sop::cube_covered(c, Sop(n, {hi}))) << "n=" << n;
      EXPECT_TRUE(agree(c, halves));
    }
    // Empty SOP covers nothing; the universal cube is covered only by a
    // tautology.
    EXPECT_FALSE(sop::cube_covered(Cube(n), Sop(n)));
    EXPECT_TRUE(sop::cube_covered(Cube(n), Sop(n, {Cube(n)})));
    Cube x(n), nx(n);
    x.set_pos(n - 1);
    nx.set_neg(n - 1);
    EXPECT_TRUE(sop::cube_covered(Cube(n), Sop(n, {x, nx})));
    EXPECT_FALSE(sop::cube_covered(Cube(n), Sop(n, {x})));
  }
  EXPECT_GT(covered, 0);  // the random mix exercises both answers
  for (unsigned n : {6u, 7u}) {
    // Word boundary: variable 5 selects the high half of a word, 6 a word.
    Sop f = Sop::parse(n, n == 6 ? "-----1" : "-----1- + ------1");
    Cube in = Cube::parse(n == 6 ? "1----1" : "-----11");
    Cube out = Cube::parse(n == 6 ? "0----0" : "0----00");
    EXPECT_TRUE(sop::cube_covered(in, f));
    EXPECT_FALSE(sop::cube_covered(out, f));
  }
}

TEST(Minimize, ClassicMergeExample) {
  // ab + a!b = a.
  Sop f = Sop::parse(2, "11 + 10");
  auto g = sop::minimize(f);
  EXPECT_EQ(g.num_cubes(), 1u);
  EXPECT_EQ(g.num_literals(), 1u);
  EXPECT_TRUE(sop::sop_equal(f, g));
}

TEST(Minimize, UsesDontCares) {
  // f = minterm 11; dc = minterm 10 -> minimizer can grow to cube "1-".
  Sop f = Sop::parse(2, "11");
  Sop dc = Sop::parse(2, "10");
  auto g = sop::minimize(f, dc);
  EXPECT_EQ(g.num_literals(), 1u);
  // Result must stay inside f + dc and cover f.
  for (const auto& c : g.cubes())
    EXPECT_TRUE(sop::cube_covered(c, sop::add(f, dc)));
  for (const auto& c : f.cubes()) EXPECT_TRUE(sop::cube_covered(c, g));
}

class MinimizeProperty : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(MinimizeProperty, NeverGrowsAndStaysEquivalent) {
  std::mt19937 rng(GetParam());
  unsigned nv = 4 + rng() % 3;
  Sop f(nv);
  int cubes = 3 + static_cast<int>(rng() % 8);
  for (int c = 0; c < cubes; ++c) {
    Cube cu(nv);
    for (unsigned v = 0; v < nv; ++v)
      switch (rng() % 3) {
        case 0: cu.set_pos(v); break;
        case 1: cu.set_neg(v); break;
        default: break;
      }
    if (!cu.contradictory()) f.add_cube(cu);
  }
  if (f.empty()) return;
  sop::MinimizeStats st;
  auto g = sop::minimize(f, &st);
  EXPECT_LE(st.literals_after, st.literals_before);
  // Exhaustive equivalence over all input points.
  for (int m = 0; m < (1 << nv); ++m) {
    std::vector<bool> a;
    for (unsigned b = 0; b < nv; ++b) a.push_back((m >> b & 1) != 0);
    ASSERT_EQ(f.eval(a), g.eval(a)) << "seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MinimizeProperty, ::testing::Range(1u, 21u));

TEST(Decompose, ShapesPreserveFunction) {
  for (auto shape : {logicopt::DecomposeShape::Chain,
                     logicopt::DecomposeShape::Balanced,
                     logicopt::DecomposeShape::Huffman}) {
    auto net = bench::decoder(4);  // wide AND gates
    auto golden = net.clone();
    auto st = sim::measure_activity(net, 64, 3);
    auto r = logicopt::decompose_wide_gates(net, shape, st.transition_prob);
    EXPECT_GT(r.gates_decomposed, 0);
    EXPECT_TRUE(sim::equivalent_random(golden, net, 256, 7));
    // Everything is now <= 2-input (plus NOT).
    for (NodeId id = 0; id < net.size(); ++id) {
      if (net.is_dead(id)) continue;
      const Node& nd = net.node(id);
      if (is_source(nd.type) || nd.type == GateType::Dff) continue;
      EXPECT_LE(nd.fanins.size(), 2u);
    }
  }
}

TEST(Decompose, HuffmanPutsHotInputLate) {
  // AND(a, hot, b, c): Huffman should combine the three quiet signals first
  // and bring the hot one in at the root, so the hot signal drives exactly
  // one gate.
  Netlist net;
  NodeId a = net.add_input("a");
  NodeId hot = net.add_input("hot");
  NodeId b = net.add_input("b");
  NodeId c = net.add_input("c");
  NodeId g = net.add_gate(GateType::And, {a, hot, b, c});
  net.add_output(g, "y");
  std::vector<double> act(net.size(), 0.1);
  act[hot] = 0.9;
  logicopt::decompose_wide_gates(net, logicopt::DecomposeShape::Huffman, act);
  EXPECT_EQ(net.node(hot).fanouts.size(), 1u);
  // The hot signal's single user must be the root (drives the PO).
  NodeId user = net.node(hot).fanouts[0];
  EXPECT_EQ(net.outputs()[0], user);
}

TEST(Decompose, HuffmanReducesPowerUnderSkewedInputs) {
  // Wide AND fed by one hot and many quiet inputs: activity-ordered
  // decomposition beats the chain that puts the hot input first.
  auto build = [] {
    Netlist net;
    std::vector<NodeId> ins;
    for (int i = 0; i < 8; ++i)
      ins.push_back(net.add_input("x" + std::to_string(i)));
    net.add_output(net.add_gate(GateType::And, ins), "y");
    return net;
  };
  std::vector<double> probs(8, 0.95);
  probs[0] = 0.5;  // x0 toggles wildly and sits first in fanin order
  power::AnalysisOptions ao;
  ao.n_vectors = 2048;
  ao.pi_one_prob = probs;

  auto chain = build();
  logicopt::decompose_wide_gates(chain, logicopt::DecomposeShape::Chain);
  auto huff = build();
  auto st = sim::measure_activity(huff, 256, 3, probs);
  logicopt::decompose_wide_gates(huff, logicopt::DecomposeShape::Huffman,
                                 st.transition_prob);
  double p_chain = power::analyze(chain, ao).report.breakdown.total_w();
  double p_huff = power::analyze(huff, ao).report.breakdown.total_w();
  EXPECT_LT(p_huff, p_chain);
}

TEST(Resynth, CollapsesRedundantWindow) {
  // g = (a AND b) OR (a AND NOT b) == a: the window resynthesis must
  // discover the 1-literal cover.
  Netlist net;
  NodeId a = net.add_input("a");
  NodeId b = net.add_input("b");
  NodeId nb = net.add_not(b);
  NodeId g = net.add_or(net.add_and(a, b), net.add_and(a, nb));
  net.add_output(g, "y");
  auto golden = net.clone();
  auto r = logicopt::resynthesize_windows(net, {});
  EXPECT_GT(r.nodes_rewritten, 0);
  EXPECT_LT(r.gates_after, r.gates_before);
  EXPECT_TRUE(bdd::equivalent_bdd(golden, net));
  EXPECT_EQ(net.num_gates(), 0u);  // output collapses to the input wire
}

TEST(Resynth, UsesControllabilityDontCares) {
  // b1 = x AND y, b2 = x OR y: the boundary pattern (b1=1, b2=0) is
  // unreachable, so a node computing b1 XOR b2 can be re-expressed as
  // !b1 AND b2 — fewer gates than the XOR pair in NAND terms; at minimum
  // the pass must preserve function while exploiting the freedom.
  Netlist net;
  NodeId x = net.add_input("x");
  NodeId y = net.add_input("y");
  NodeId b1 = net.add_and(x, y);
  NodeId b2 = net.add_or(x, y);
  // Fat implementation of XOR over b1,b2 so a rewrite is profitable.
  NodeId t1 = net.add_and(b1, net.add_not(b2));
  NodeId t2 = net.add_and(net.add_not(b1), b2);
  NodeId g = net.add_or(t1, t2);
  net.add_output(g, "y");
  net.add_output(b1, "b1");  // keep the boundary signals observable
  net.add_output(b2, "b2");
  auto golden = net.clone();
  auto r = logicopt::resynthesize_windows(net, {});
  EXPECT_TRUE(bdd::equivalent_bdd(golden, net));
  EXPECT_LE(net.num_gates(), golden.num_gates());
  EXPECT_GT(r.windows_examined, 0);
}

TEST(Resynth, UnseenBoundaryPatternsAreProvenUnreachable) {
  // b1 = AND of five inputs implies b2 = OR of the same five, so the
  // boundary pattern (b1=1, b2=0) of g = b1 OR b2 is unreachable and
  // g = b2 under that don't-care.  Simulation sees the other three
  // patterns; the unreachable one can only be settled by the BDD check.
  Netlist net;
  std::vector<NodeId> x;
  for (int i = 0; i < 5; ++i)
    x.push_back(net.add_input("x" + std::to_string(i)));
  NodeId b1 = net.add_gate(GateType::And, x);
  NodeId b2 = net.add_gate(GateType::Or, x);
  NodeId g = net.add_or(b1, b2);
  net.add_output(g, "y");
  net.add_output(b1, "b1");
  auto golden = net.clone();
  core::metrics::reset();
  auto r = logicopt::resynthesize_windows(net, {});
  double minterms = core::metrics::value("logicopt.resynth.minterms");
  double sim_reached = core::metrics::value("logicopt.resynth.sim_reached");
  double bdd_checked = core::metrics::value("logicopt.resynth.bdd_checked");
  EXPECT_GT(bdd_checked, 0.0);
  EXPECT_GT(sim_reached, 0.0);
  EXPECT_EQ(minterms, sim_reached + bdd_checked);
  EXPECT_GT(r.nodes_rewritten, 0);
  EXPECT_EQ(net.outputs()[0], b2);  // the don't-care was taken
  EXPECT_TRUE(bdd::equivalent_bdd(golden, net));
}

TEST(Resynth, PreservesFunctionOnSuite) {
  for (const auto& [name, net0] : bench::default_suite()) {
    if (net0.num_gates() > 200) continue;
    auto net = net0.clone();
    auto st = sim::measure_activity(net, 64, 5);
    logicopt::ResynthOptions opt;
    opt.max_rewrites = 50;
    logicopt::resynthesize_windows(net, st.transition_prob, opt);
    EXPECT_TRUE(sim::equivalent_random(net0, net, 256, 9)) << name;
    EXPECT_EQ(net.check(), "") << name;
  }
}

TEST(SequencePower, IdleSequenceCheaperThanRandom) {
  // [28]: power depends on the executed input sequence.  A counter whose
  // enable is mostly 0 burns far less than under random stimulus.
  auto net = bench::counter(6);
  std::vector<std::vector<bool>> idle(512, std::vector<bool>{false});
  for (std::size_t t = 0; t < idle.size(); t += 16) idle[t][0] = true;
  auto seq = power::analyze_sequence(net, idle);
  power::AnalysisOptions ao;
  ao.n_vectors = 512;
  auto rnd = power::analyze(net, ao);
  EXPECT_LT(seq.report.breakdown.total_w(),
            rnd.report.breakdown.total_w());
}

TEST(SequencePower, MatchesAnalyzeOnSameVectors) {
  auto net = bench::c17();
  std::mt19937 rng(5);
  std::vector<std::vector<bool>> vecs;
  for (int t = 0; t < 256; ++t) {
    std::vector<bool> v;
    for (int i = 0; i < 5; ++i) v.push_back((rng() & 1) != 0);
    vecs.push_back(v);
  }
  auto a = power::analyze_sequence(net, vecs);
  EXPECT_GT(a.report.breakdown.total_w(), 0.0);
  EXPECT_THROW(power::analyze_sequence(
                   net, {std::vector<bool>{true, false}}),
               std::invalid_argument);
}

TEST(AdditiveModel, IgnoresInterModuleCorrelation) {
  // Module A: 4-bit adder; module B: comparator consuming A's sum.  The
  // isolated-module estimate mispredicts B's contribution because B's real
  // inputs are not uniform iid — the [36] limitation.
  auto a = bench::ripple_carry_adder(4);
  auto b = bench::comparator_gt(4);
  auto ev = arch::evaluate_additive_model(a, b, 4096);
  EXPECT_GT(ev.truth_cap_ff, 0.0);
  EXPECT_GT(std::abs(ev.relative_error), 0.005);  // measurably wrong
  EXPECT_LT(std::abs(ev.relative_error), 0.6);    // but in the ballpark
}

}  // namespace
}  // namespace lps
