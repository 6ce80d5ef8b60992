// Sequential optimization tests: STG, encoding, retiming, clock gating,
// precomputation, guarded evaluation (§III-C).

#include <gtest/gtest.h>

#include <random>
#include <sstream>

#include "seq/clock_gating.hpp"
#include "seq/encoding.hpp"
#include "seq/guarded_eval.hpp"
#include "seq/precompute.hpp"
#include "seq/retiming.hpp"
#include "seq/seq_circuit.hpp"
#include "seq/stg.hpp"
#include "netlist/benchmarks.hpp"
#include "power/activity.hpp"
#include "sim/logicsim.hpp"
#include "sop/minimize.hpp"

namespace lps::seq {
namespace {

// Drive two sequential netlists with the same input trace; compare outputs.
bool same_traces(const Netlist& a, const Netlist& b, int cycles,
                 std::uint64_t seed) {
  if (a.inputs().size() != b.inputs().size()) return false;
  if (a.outputs().size() != b.outputs().size()) return false;
  sim::LogicSim sa(a), sb(b);
  auto da = a.dffs(), db = b.dffs();
  std::vector<std::uint64_t> qa(da.size()), qb(db.size());
  for (std::size_t i = 0; i < da.size(); ++i)
    qa[i] = a.node(da[i]).init_value ? ~0ULL : 0;
  for (std::size_t i = 0; i < db.size(); ++i)
    qb[i] = b.node(db[i]).init_value ? ~0ULL : 0;
  std::mt19937_64 rng(seed);
  std::vector<std::uint64_t> pi(a.inputs().size());
  for (int c = 0; c < cycles; ++c) {
    for (auto& w : pi) w = rng();
    auto fa = sa.eval(pi, qa);
    auto fb = sb.eval(pi, qb);
    auto oa = sa.outputs_of(fa), ob = sb.outputs_of(fb);
    for (std::size_t i = 0; i < oa.size(); ++i)
      if (oa[i] != ob[i]) return false;
    qa = sa.next_state_of(fa);
    qb = sb.next_state_of(fb);
  }
  return true;
}

TEST(Stg, CounterSteadyStateUniform) {
  auto g = counter_fsm(8);
  EXPECT_EQ(g.check(), "");
  auto pi = g.steady_state();
  for (double p : pi) EXPECT_NEAR(p, 1.0 / 8.0, 0.01);
}

TEST(Stg, TransitionMatrixRowsSumToOne) {
  auto g = random_fsm(12, 2, 2, 5);
  EXPECT_EQ(g.check(), "");
  auto m = g.transition_matrix();
  for (const auto& row : m) {
    double s = 0;
    for (double x : row) s += x;
    EXPECT_NEAR(s, 1.0, 1e-9);
  }
}

TEST(Stg, KissRoundTrip) {
  auto g = sequence_detector("1011");
  std::ostringstream os;
  write_kiss(os, g);
  auto back = read_kiss_string(os.str());
  EXPECT_EQ(back.num_states(), g.num_states());
  EXPECT_EQ(back.transitions().size(), g.transitions().size());
  EXPECT_EQ(back.check(), "");
}

TEST(Stg, BurstyIsHotLoopHeavy) {
  auto g = bursty_fsm(4, 12, 3);
  auto pi = g.steady_state();
  double hot = 0, cold = 0;
  for (int s = 0; s < 4; ++s) hot += pi[s];
  for (int s = 4; s < 16; ++s) cold += pi[s];
  EXPECT_GT(hot, cold);
}

TEST(Encoding, ValidityChecks) {
  auto g = counter_fsm(6);
  EXPECT_TRUE(binary_encoding(g).valid(6));
  EXPECT_TRUE(onehot_encoding(g).valid(6));
  EXPECT_TRUE(gray_walk_encoding(g).valid(6));
  EXPECT_TRUE(random_encoding(g, 3).valid(6));
  Encoding bad;
  bad.bits = 2;
  bad.codes = {0, 1, 1, 2, 3, 0};
  EXPECT_FALSE(bad.valid(6));
}

TEST(Encoding, AnnealBeatsBinaryOnCounter) {
  // An up/down counter crosses adjacent states: Gray-like codes are
  // provably optimal (1 bit per step); binary averages ~2.
  auto g = counter_fsm(16);
  auto bin = binary_encoding(g);
  auto low = low_power_encoding(g);
  EXPECT_LT(low.weighted_switching(g), bin.weighted_switching(g));
  EXPECT_LE(low.weighted_switching(g), 1.0 + 1e-6);
  EXPECT_TRUE(low.valid(16));
}

TEST(Encoding, AnnealNoWorseThanGrayWalkStart) {
  for (std::uint32_t seed : {1u, 2u, 3u}) {
    auto g = random_fsm(10, 2, 2, seed);
    auto gw = gray_walk_encoding(g);
    AnnealOptions opt;
    opt.seed = seed;
    auto low = low_power_encoding(g, opt);
    EXPECT_LE(low.weighted_switching(g), gw.weighted_switching(g) + 1e-9);
  }
}

TEST(Encoding, SynthesizedFsmMatchesStgBehaviour) {
  auto g = sequence_detector("1101");
  auto enc = binary_encoding(g);
  Netlist net = synthesize_fsm(g, enc);
  EXPECT_EQ(net.check(), "");
  // Walk the STG and the netlist side by side on a random input stream.
  sim::LogicSim sim_(net);
  auto dffs = net.dffs();
  std::vector<std::uint64_t> state(dffs.size());
  for (std::size_t i = 0; i < dffs.size(); ++i)
    state[i] = net.node(dffs[i]).init_value ? ~0ULL : 0;
  int stg_state = g.reset_state();
  std::mt19937 rng(9);
  for (int cyc = 0; cyc < 200; ++cyc) {
    int in = rng() & 1;
    std::vector<std::uint64_t> pi{in ? ~0ULL : 0};
    auto f = sim_.eval(pi, state);
    // STG step.
    int next = stg_state;  // default self-loop
    char out = '0';
    for (const auto& t : g.transitions()) {
      if (t.from != stg_state) continue;
      if (t.input[0] != '-' && (t.input[0] == '1') != (in != 0)) continue;
      next = t.to;
      out = t.output[0];
      break;
    }
    EXPECT_EQ((f[net.outputs()[0]] & 1) != 0, out == '1') << "cycle " << cyc;
    state = sim_.next_state_of(f);
    stg_state = next;
  }
}

TEST(Encoding, ExtractStgInvertsSynthesis) {
  auto g = counter_fsm(4);
  auto net = synthesize_fsm(g, binary_encoding(g));
  auto back = extract_stg(net);
  // Same number of reachable states and same steady-state structure.
  EXPECT_EQ(back.num_states(), 4);
  EXPECT_EQ(back.check(), "");
  auto net2 = synthesize_fsm(back, binary_encoding(back));
  EXPECT_TRUE(same_traces(net, net2, 200, 4));
}

TEST(Encoding, ReencodePreservesBehaviour) {
  auto g = bursty_fsm(4, 4, 7);
  auto net = synthesize_fsm(g, random_encoding(g, 99));
  auto r = reencode_for_power(net);
  EXPECT_LE(r.wswitch_after, r.wswitch_before + 1e-9);
  EXPECT_TRUE(same_traces(net, r.circuit, 300, 11));
}

// The prefix cover of the unused state codes is exactly the set of unused
// codes, whatever the encoding.
TEST(Encoding, UnusedCodeDontCaresAreExactlyTheUnusedCodes) {
  for (const Stg& g : {mcnc_dk27(), mcnc_bbara_fragment(),
                       sequence_detector("110101"), counter_fsm(8)}) {
    for (const Encoding& enc :
         {binary_encoding(g), onehot_encoding(g), random_encoding(g, 23),
          gray_walk_encoding(g)}) {
      const unsigned first = static_cast<unsigned>(g.num_inputs());
      const unsigned nv = first + static_cast<unsigned>(enc.bits);
      sop::Sop dc = unused_code_dontcares(nv, first, enc);
      EXPECT_LE(dc.num_cubes(), enc.codes.size() * enc.bits);
      // The enumerated minterm set it replaces, one cube per unused code.
      std::vector<bool> used(1u << enc.bits, false);
      for (std::uint32_t code : enc.codes) used[code] = true;
      sop::Sop minterms(nv);
      for (std::uint32_t code = 0; code < used.size(); ++code) {
        if (used[code]) continue;
        sop::Cube c(nv);
        for (int b = 0; b < enc.bits; ++b) {
          if (code >> b & 1)
            c.set_pos(first + b);
          else
            c.set_neg(first + b);
        }
        minterms.add_cube(c);
      }
      EXPECT_TRUE(sop::sop_equal(dc, minterms)) << enc.bits << " bits";
    }
  }
}

// Listing the unused codes as prefixes rather than minterms changes the
// don't-care cover, not its function, and minimization depends only on
// the function: these hashes were recorded from the minterm-listing build.
TEST(Encoding, OneHotFsmsMatchTheMintermDontCareBuild) {
  struct Golden {
    Stg stg;
    std::uint64_t hash;
  };
  for (const auto& [g, hash] :
       {Golden{mcnc_dk27(), 0x4bc838bd135de14eull},
        Golden{mcnc_bbara_fragment(), 0x636ae301bd3bd81cull},
        Golden{sequence_detector("110101"), 0x41075d94d9398854ull}})
    EXPECT_EQ(structural_hash(synthesize_fsm(g, onehot_encoding(g))), hash);
}

TEST(RetimeGraph, CorrelatorExample) {
  // The classic Leiserson-Saxe correlator: ring of 8 vertices; min period
  // drops from 24 to 13 after retiming.
  RetimeGraph g;
  int host = g.add_vertex(0);
  int d1 = g.add_vertex(3), d2 = g.add_vertex(3), d3 = g.add_vertex(3);
  int p1 = g.add_vertex(7), p2 = g.add_vertex(7), p3 = g.add_vertex(7);
  int p0 = g.add_vertex(7);
  g.add_edge(host, p0, 1);
  g.add_edge(p0, d1, 1);
  g.add_edge(d1, d2, 1);
  g.add_edge(d2, d3, 0);  // note: canonical weights from the paper
  g.add_edge(d3, host, 0);
  g.add_edge(d1, p1, 0);
  g.add_edge(d2, p2, 0);
  g.add_edge(d3, p3, 0);
  g.add_edge(p1, p0, 0);
  g.add_edge(p2, p1, 0);
  g.add_edge(p3, p2, 0);
  int before = g.period();
  auto [best, r] = g.min_period_retiming();
  EXPECT_LT(best, before);
  auto rg = g.retimed(r);
  EXPECT_EQ(rg.period(), best);
  for (const auto& e : rg.edges()) EXPECT_GE(e.weight, 0);
}

TEST(RetimeGraph, FeasibilityMonotone) {
  RetimeGraph g;
  int a = g.add_vertex(2), b = g.add_vertex(2), c = g.add_vertex(2);
  g.add_edge(a, b, 0);
  g.add_edge(b, c, 0);
  g.add_edge(c, a, 3);
  auto [best, r] = g.min_period_retiming();
  (void)r;
  EXPECT_TRUE(g.feasible_retiming(best).has_value());
  if (best > 2) {
    EXPECT_FALSE(g.feasible_retiming(best - 1).has_value());
  }
}

TEST(Retime, PowerRetimePreservesTraceAndPeriod) {
  // Pipelined multiplier: registers at inputs/outputs; power retiming may
  // push registers into the glitchy array.
  auto comb = bench::array_multiplier(3);
  auto net = registered(comb);
  auto golden = net.clone();
  PowerRetimeOptions opt;
  opt.sim_vectors = 128;
  opt.max_moves = 10;
  auto r = retime_for_power(net, opt);
  EXPECT_LE(r.period_after, r.period_before);
  EXPECT_LE(r.power_after_w, r.power_before_w + 1e-12);
  EXPECT_TRUE(same_traces(golden, net, 300, 21));
  EXPECT_EQ(net.check(), "");
}

TEST(ClockGating, DetectsRegisterFilePatterns) {
  auto rf = register_file(4, 8);
  auto ps = detect_hold_patterns(rf);
  EXPECT_EQ(ps.size(), 32u);  // every bit of every word recirculates
}

TEST(ClockGating, ActivityReportScalesWithDuty) {
  auto rf = register_file(8, 8);
  auto ps = detect_hold_patterns(rf);
  auto rep = clock_activity(rf, ps, 2048, 17);
  // Each word selected ~wen/8 of the time -> enables mostly idle.
  EXPECT_LT(rep.enable_one_prob_mean, 0.2);
  EXPECT_GT(rep.clock_power_saving_fraction(), 0.5);
  EXPECT_LT(rep.clock_power_saving_fraction(), 1.0);
}

TEST(ClockGating, ApplyRemovesMuxes) {
  auto rf = register_file(4, 4);
  auto ps = detect_hold_patterns(rf);
  std::size_t before = rf.num_gates();
  auto res = apply_clock_gating(rf, ps);
  EXPECT_EQ(res.gated_registers, 16);
  EXPECT_LT(rf.num_gates(), before);
  EXPECT_EQ(rf.check(), "");
}

TEST(Precompute, ComparatorMatchesFigure1) {
  // Figure 1: subset {C[n-1], D[n-1]} gives LE = XNOR and hit rate 1/2.
  auto comb = bench::comparator_gt(8);
  auto sel = select_precompute_inputs(comb, 2);
  ASSERT_EQ(sel.subset.size(), 2u);
  EXPECT_NEAR(sel.hit_probability, 0.5, 1e-9);
  // The chosen pair must be the MSBs c7, d7.
  std::vector<std::string> names;
  for (NodeId s : sel.subset) names.push_back(comb.node(s).name);
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names[0], "c7");
  EXPECT_EQ(names[1], "d7");
}

TEST(Precompute, ArchitecturePreservesTrace) {
  auto comb = bench::comparator_gt(6);
  auto sel = select_precompute_inputs(comb, 2);
  auto pre = apply_precomputation(comb, sel.subset);
  auto base = registered_baseline(comb);
  EXPECT_TRUE(same_traces(base, pre.circuit, 500, 23));
  EXPECT_GT(pre.precompute_gates, 0);
}

TEST(Precompute, ReducesMeasuredPower) {
  auto comb = bench::comparator_gt(12);
  auto sel = select_precompute_inputs(comb, 2);
  auto pre = apply_precomputation(comb, sel.subset);
  auto base = registered_baseline(comb);
  power::AnalysisOptions ao;
  ao.n_vectors = 1024;
  double p_base = power::analyze(base, ao).report.breakdown.total_w();
  double p_pre = power::analyze(pre.circuit, ao).report.breakdown.total_w();
  EXPECT_LT(p_pre, p_base);
}

TEST(GuardedEval, FreezesUnselectedArmAndPreservesTrace) {
  // Two 4-bit adder cones into a mux; select registered from a PI.
  Netlist comb("guard_test");
  std::vector<NodeId> xs;
  for (int i = 0; i < 9; ++i) xs.push_back(comb.add_input("x" + std::to_string(i)));
  NodeId sel = comb.add_input("sel");
  // Arm A: AND-tree of x0..x3; Arm B: OR-tree of x4..x7 with x8.
  NodeId a1 = comb.add_and(xs[0], xs[1]);
  NodeId a2 = comb.add_and(xs[2], xs[3]);
  NodeId armA = comb.add_and(a1, a2);
  NodeId b1 = comb.add_or(xs[4], xs[5]);
  NodeId b2 = comb.add_or(xs[6], xs[7]);
  NodeId armB = comb.add_or(comb.add_or(b1, b2), xs[8]);
  NodeId m = comb.add_mux(sel, armA, armB);
  comb.add_output(m, "y");
  auto net = registered(comb);
  auto golden = net.clone();
  auto regions = guard_mux_arms(net);
  ASSERT_EQ(regions.size(), 1u);
  EXPECT_GT(regions[0].frozen_registers_a, 0);
  EXPECT_GT(regions[0].frozen_registers_b, 0);
  EXPECT_TRUE(same_traces(golden, net, 500, 29));
}

TEST(GuardedEval, StgPredicateGatingIsFunctionalNoop) {
  auto g = polling_fsm(12);
  auto enc = binary_encoding(g);
  auto net = synthesize_fsm(g, enc);
  auto golden = net.clone();
  int gates = gate_self_loops_from_stg(net, g, enc);
  EXPECT_GE(gates, 0);
  EXPECT_TRUE(same_traces(golden, net, 400, 37));
  // Every state register is now load-enabled.
  for (NodeId d : net.dffs()) EXPECT_TRUE(net.dff_has_enable(d));
  // For a polling FSM the predicate is trivial (input = 0), so the
  // synthesized detector is at most a couple of gates.
  EXPECT_LE(gates, 2);
}

TEST(GuardedEval, SelfLoopGatingIsFunctionalNoop) {
  auto g = bursty_fsm(4, 4, 13);
  auto net = synthesize_fsm(g, binary_encoding(g));
  auto golden = net.clone();
  auto res = gate_fsm_self_loops(net);
  EXPECT_EQ(res.state_bits, 3);
  EXPECT_GT(res.comparator_gates, 0);
  EXPECT_TRUE(same_traces(golden, net, 400, 31));
  // And the hold pattern is now discoverable for clock gating.
  auto ps = detect_hold_patterns(net);
  EXPECT_EQ(ps.size(), 3u);
}

TEST(SeqCircuit, RegisteredWrapsWithLatencyOne) {
  auto comb = bench::parity_tree(4);
  auto net = registered(comb);
  EXPECT_EQ(net.dffs().size(), 5u);  // 4 input + 1 output registers
  // Latency: output at cycle t reflects inputs at t-2 (in+out ranks)... the
  // output register adds 1, input registers add 1.
  sim::LogicSim s(net);
  std::vector<std::uint64_t> pi(4, 0);
  std::vector<std::uint64_t> st(5, 0);
  pi[0] = ~0ULL;  // parity becomes 1
  auto f1 = s.eval(pi, st);
  EXPECT_EQ(f1[net.outputs()[0]] & 1, 0u);
  st = s.next_state_of(f1);
  auto f2 = s.eval(pi, st);
  EXPECT_EQ(f2[net.outputs()[0]] & 1, 0u);
  st = s.next_state_of(f2);
  auto f3 = s.eval(pi, st);
  EXPECT_EQ(f3[net.outputs()[0]] & 1, 1u);
}

}  // namespace
}  // namespace lps::seq
