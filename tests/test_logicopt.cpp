// Logic-level optimization tests: don't-cares, path balancing, technology
// mapping, power-aware factoring bridges.

#include <gtest/gtest.h>

#include "bdd/bdd_netlist.hpp"
#include "core/metrics.hpp"
#include "dontcare_reference.hpp"
#include "logicopt/dontcare.hpp"
#include "logicopt/library.hpp"
#include "logicopt/path_balance.hpp"
#include "logicopt/power_factor.hpp"
#include "logicopt/techmap.hpp"
#include "netlist/benchmarks.hpp"
#include "power/activity.hpp"
#include "sim/eventsim.hpp"
#include "sim/logicsim.hpp"

namespace lps::logicopt {
namespace {

TEST(DontCare, RemovesOdcRedundantGate) {
  // y = (a AND b) OR a  == a: the AND gate is ODC-redundant.
  Netlist n;
  NodeId a = n.add_input("a");
  NodeId b = n.add_input("b");
  NodeId g = n.add_and(a, b);
  NodeId y = n.add_or(g, a);
  n.add_output(y, "y");
  auto golden = n.clone();
  auto st = sim::measure_activity(n, 64, 1);
  auto res = optimize_dontcare(n, st.transition_prob);
  EXPECT_GT(res.const_replacements + res.merges, 0);
  EXPECT_LT(res.gates_after, res.gates_before);
  EXPECT_TRUE(bdd::equivalent_bdd(golden, n));
}

TEST(DontCare, PreservesFunctionOnSuite) {
  for (const auto& [name, net] : bench::default_suite()) {
    Netlist work = net.clone();
    auto st = sim::measure_activity(work, 64, 2);
    DontCareOptions opt;
    opt.max_rewrites = 40;
    optimize_dontcare(work, st.transition_prob, opt);
    EXPECT_TRUE(sim::equivalent_random(net, work, 256, 5)) << name;
    EXPECT_EQ(work.check(), "") << name;
  }
}

TEST(DontCare, BddLimitAndRewriteCapAreReported) {
  auto net = bench::alu(4);
  auto st = sim::measure_activity(net, 64, 2);
  Netlist full = net.clone();
  auto res_full = optimize_dontcare(full, st.transition_prob);
  EXPECT_FALSE(res_full.bdd_limited);
  EXPECT_FALSE(res_full.capped);
  ASSERT_GE(res_full.const_replacements + res_full.merges, 2);

  // A budget too small for the global BDDs stops the pass before any
  // rewrite, and says so.
  core::metrics::reset();
  Netlist tiny = net.clone();
  DontCareOptions small;
  small.bdd_limit = 8;
  auto res_tiny = optimize_dontcare(tiny, st.transition_prob, small);
  EXPECT_TRUE(res_tiny.bdd_limited);
  EXPECT_FALSE(res_tiny.capped);
  EXPECT_EQ(res_tiny.const_replacements + res_tiny.merges, 0);
  EXPECT_EQ(core::metrics::value("logicopt.dontcare.bdd_limited"), 1.0);
  EXPECT_TRUE(sim::equivalent_random(net, tiny, 256, 5));

  // A rewrite cap short of the fixpoint stops the pass and says so.
  Netlist capped = net.clone();
  DontCareOptions one;
  one.max_rewrites = 1;
  auto res_cap = optimize_dontcare(capped, st.transition_prob, one);
  EXPECT_TRUE(res_cap.capped);
  EXPECT_FALSE(res_cap.bdd_limited);
  EXPECT_EQ(res_cap.const_replacements + res_cap.merges, 1);
  EXPECT_EQ(core::metrics::value("logicopt.dontcare.capped"), 1.0);
  EXPECT_TRUE(sim::equivalent_random(net, capped, 256, 5));
}

// The filter-then-prove pass makes exactly the rewrites of the BDD-only
// reference model (tests/dontcare_reference.hpp): same final structure,
// same counts, same stop reasons.
TEST(DontCare, MatchesReferenceRewrites) {
  std::vector<bench::NamedNetlist> nets;
  for (auto& c : bench::default_suite())
    if (c.net.num_gates() <= 150) nets.push_back(std::move(c));
  for (int g : {100, 125})
    nets.push_back({"dag" + std::to_string(g), bench::random_dag(32, g, 7)});
  for (auto& c : dontcare_reference::redundancy_suite())
    nets.push_back(std::move(c));
  // Sequential: register outputs are free variables, D inputs are roots.
  nets.push_back({"counter6+red",
                  dontcare_reference::with_redundancy(bench::counter(6), 4)});
  int rewrites = 0;
  for (const auto& [name, net] : nets) {
    auto tp = sim::measure_activity(net, 64, 2).transition_prob;
    Netlist fast = net.clone(), ref = net.clone();
    auto a = optimize_dontcare(fast, tp);
    auto b = dontcare_reference::optimize_dontcare(ref, tp);
    EXPECT_EQ(structural_hash(fast), structural_hash(ref)) << name;
    EXPECT_EQ(a.const_replacements, b.const_replacements) << name;
    EXPECT_EQ(a.merges, b.merges) << name;
    EXPECT_EQ(a.bdd_limited, b.bdd_limited) << name;
    EXPECT_EQ(a.capped, b.capped) << name;
    rewrites += a.const_replacements + a.merges;
  }
  EXPECT_GT(rewrites, 100);  // the comparison covers real rewrites
}

// After a rewrite the pass re-derives the functions of the rewired gates'
// fanout instead of rebuilding every BDD.  Here the first rewrite (n -> a,
// n = a&d is only observed when d = 1) turns u into a ^ c, and only the
// re-derived function lets the next sweep merge m = XNOR(a, !c) into u;
// with u's stale function the pass would instead merge u into m.
TEST(DontCare, RewiredFunctionsStayCurrent) {
  Netlist net;
  NodeId a = net.add_input("a");
  NodeId c = net.add_input("c");
  NodeId d = net.add_input("d");
  NodeId m = net.add_xnor(a, net.add_not(c));
  NodeId u = net.add_xor(net.add_and(a, d), c);
  net.add_output(net.add_and(u, d), "r1");
  net.add_output(m, "r2");
  auto tp = sim::measure_activity(net, 64, 2).transition_prob;
  Netlist fast = net.clone(), ref = net.clone();
  auto res = optimize_dontcare(fast, tp);
  dontcare_reference::optimize_dontcare(ref, tp);
  EXPECT_EQ(res.merges, 2);
  EXPECT_EQ(structural_hash(fast), structural_hash(ref));
  EXPECT_TRUE(fast.is_dead(m));  // m merged into u, not u into m
  EXPECT_FALSE(fast.is_dead(u));
  EXPECT_TRUE(bdd::equivalent_bdd(net, fast));
}

TEST(DontCare, CandidateCountersAddUp) {
  auto net = bench::random_dag(32, 150, 7);
  auto tp = sim::measure_activity(net, 64, 2).transition_prob;
  core::metrics::reset();
  auto res = optimize_dontcare(net, tp);
  auto v = [](const char* k) {
    return core::metrics::value(std::string("logicopt.dontcare.") + k);
  };
  EXPECT_GT(v("candidates"), 0.0);
  EXPECT_EQ(v("candidates"), v("sim_rejected") + v("bdd_checked"));
  EXPECT_LE(res.const_replacements + res.merges, v("bdd_checked"));
  EXPECT_GT(v("sim_rejected"), v("bdd_checked"));  // the filter does work
}

// A Dff's enable pin is an observation point: logic that only feeds an
// enable is not a don't-care, and must survive the pass.
TEST(DontCare, KeepsDffEnableObservable) {
  Netlist n;
  NodeId a = n.add_input("a");
  NodeId b = n.add_input("b");
  NodeId c = n.add_input("c");
  NodeId q = n.add_dff(c, false, "q");
  n.set_dff_enable(q, n.add_and(a, b));
  n.add_output(q, "y");
  auto golden = n.clone();
  std::vector<double> tp(n.size(), 0.5);
  auto res = optimize_dontcare(n, tp);
  EXPECT_EQ(res.const_replacements + res.merges, 0);
  EXPECT_TRUE(bdd::equivalent_bdd(golden, n));
}

// A budget that admits the global BDDs but not every later proof stops the
// pass mid-way with a consistent, equivalent netlist.
TEST(DontCare, BddLimitMidPassKeepsNetlistConsistent) {
  auto net = bench::random_dag(32, 150, 7);
  auto tp = sim::measure_activity(net, 64, 2).transition_prob;
  std::size_t build = bdd::build_bdds(net).mgr.live_nodes();
  bool stopped_mid_pass = false;
  for (std::size_t extra = 1; extra <= 1024; extra *= 2) {
    Netlist work = net.clone();
    DontCareOptions opt;
    opt.bdd_limit = build + extra;
    auto res = optimize_dontcare(work, tp, opt);
    stopped_mid_pass = stopped_mid_pass ||
                       (res.bdd_limited && res.const_replacements + res.merges);
    EXPECT_EQ(work.check(), "") << extra;
    EXPECT_TRUE(bdd::equivalent_bdd(net, work)) << extra;
  }
  EXPECT_TRUE(stopped_mid_pass);
}

TEST(DontCare, NoFalsePositivesOnIrredundantCircuit) {
  // A parity tree has no ODC freedom anywhere.
  auto net = bench::parity_tree(8);
  auto st = sim::measure_activity(net, 64, 3);
  auto res = optimize_dontcare(net, st.transition_prob);
  EXPECT_EQ(res.const_replacements, 0);
  EXPECT_EQ(res.merges, 0);
}

TEST(Balance, EliminatesGlitchesPreservesDelayAndFunction) {
  auto net = bench::array_multiplier(4);
  auto golden = net.clone();
  int delay_before = net.critical_delay();
  double glitch_before =
      sim::measure_timed_activity(net, 400, 3).glitch_fraction();
  auto r = full_balance(net);
  EXPECT_GT(r.buffers_inserted, 0);
  EXPECT_EQ(net.critical_delay(), delay_before);
  EXPECT_TRUE(sim::equivalent_random(golden, net, 256, 7));
  double glitch_after =
      sim::measure_timed_activity(net, 400, 3).glitch_fraction();
  EXPECT_GT(glitch_before, 0.05);
  EXPECT_NEAR(glitch_after, 0.0, 1e-9);
}

TEST(Balance, PartialUsesBudgetAndReducesGlitching) {
  auto net = bench::array_multiplier(4);
  double total_before = sim::measure_timed_activity(net, 400, 3).sum_total();
  auto r = partial_balance(net, 20);
  EXPECT_LE(r.buffers_inserted, 20);
  EXPECT_GT(r.buffers_inserted, 0);
  EXPECT_EQ(r.critical_delay_after, r.critical_delay_before);
  double total_after = sim::measure_timed_activity(net, 400, 3).sum_total();
  // Gate transitions shrink even counting the new buffers.
  EXPECT_LT(total_after, total_before * 1.05);
}

TEST(Library, StandardCellsWellFormed) {
  auto lib = standard_library();
  EXPECT_GT(lib.gates.size(), 10u);
  for (const auto& g : lib.gates) {
    EXPECT_GT(g.pattern.num_leaves(), 0) << g.name;
    EXPECT_GT(g.area, 0) << g.name;
  }
}

TEST(Library, DecomposeNand2Equivalent) {
  for (const auto& [name, net] : bench::default_suite()) {
    auto d = decompose_nand2(net);
    for (NodeId id = 0; id < d.size(); ++id) {
      if (d.is_dead(id)) continue;
      auto t = d.node(id).type;
      EXPECT_TRUE(t == GateType::Nand || t == GateType::Not ||
                  is_source(t) || t == GateType::Dff)
          << name;
    }
    EXPECT_TRUE(sim::equivalent_random(net, d, 128, 11)) << name;
  }
}

TEST(TechMap, MappingPreservesFunction) {
  auto lib = standard_library();
  for (const auto& name : {"c17", "rca8", "cmp8", "alu4"}) {
    Netlist net;
    if (std::string(name) == "c17") net = bench::c17();
    if (std::string(name) == "rca8") net = bench::ripple_carry_adder(8);
    if (std::string(name) == "cmp8") net = bench::comparator_gt(8);
    if (std::string(name) == "alu4") net = bench::alu(4);
    auto subject = subject_graph(net);
    for (auto obj :
         {MapObjective::Area, MapObjective::Delay, MapObjective::Power}) {
      auto r = tech_map(net, lib, obj);
      EXPECT_FALSE(r.instances.empty()) << name;
      Netlist mapped = r.to_netlist(subject);
      EXPECT_TRUE(sim::equivalent_random(net, mapped, 256, 13)) << name;
    }
  }
}

TEST(TechMap, ObjectivesTradeOff) {
  auto lib = standard_library();
  auto net = bench::ripple_carry_adder(16);
  auto ra = tech_map(net, lib, MapObjective::Area);
  auto rd = tech_map(net, lib, MapObjective::Delay);
  auto rp = tech_map(net, lib, MapObjective::Power);
  // Each objective should win (or tie) its own metric.
  EXPECT_LE(ra.total_area, rd.total_area + 1e-9);
  EXPECT_LE(ra.total_area, rp.total_area + 1e-9);
  EXPECT_LE(rd.arrival, ra.arrival + 1e-9);
  EXPECT_LE(rd.arrival, rp.arrival + 1e-9);
  EXPECT_LE(rp.switched_cap_ff, ra.switched_cap_ff + 1e-9);
  EXPECT_LE(rp.switched_cap_ff, rd.switched_cap_ff + 1e-9);
}

TEST(TechMap, UsesComplexCells) {
  auto lib = standard_library();
  auto net = bench::comparator_gt(16);
  auto r = tech_map(net, lib, MapObjective::Area);
  int complex_cells = 0;
  for (const auto& [cell, count] : r.cell_histogram) {
    if (cell != "INVx1" && cell != "NAND2x1") complex_cells += count;
  }
  EXPECT_GT(complex_cells, 0);
}

TEST(PowerFactor, BothFormsEquivalentToFlat) {
  auto f = sop::Sop::parse(6, "11---- + 1-1--- + --11-- + ---1-1 + 0----1");
  std::vector<double> probs{0.5, 0.9, 0.1, 0.5, 0.3, 0.7};
  auto cmp = compare_factorings(f, probs);
  EXPECT_TRUE(sim::equivalent_random(cmp.flat, cmp.literal_form, 64, 17));
  EXPECT_TRUE(sim::equivalent_random(cmp.flat, cmp.power_form, 64, 17));
  EXPECT_LE(cmp.lits_literal, cmp.lits_flat);
}

}  // namespace
}  // namespace lps::logicopt
