// BDD package tests: canonicity, Boolean algebra, quantification,
// counting, netlist bridging.

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <random>
#include <string>
#include <unordered_map>

#include "bdd/bdd.hpp"
#include "bdd/bdd_netlist.hpp"
#include "core/metrics.hpp"
#include "logicopt/bdd_synth.hpp"
#include "netlist/benchmarks.hpp"
#include "sim/logicsim.hpp"

namespace lps {
namespace {

using bdd::kFalse;
using bdd::kTrue;

TEST(Bdd, Canonicity) {
  bdd::Manager m(3);
  auto a = m.var(0), b = m.var(1);
  // a AND b built two ways must be the same node.
  EXPECT_EQ(m.land(a, b), m.ite(b, a, kFalse));
  EXPECT_EQ(m.lnot(m.lnot(a)), a);
  EXPECT_EQ(m.lxor(a, a), kFalse);
  EXPECT_EQ(m.lxnor(a, a), kTrue);
  EXPECT_EQ(m.lor(a, m.lnot(a)), kTrue);
  // De Morgan.
  EXPECT_EQ(m.lnot(m.land(a, b)), m.lor(m.lnot(a), m.lnot(b)));
}

TEST(Bdd, EvalMatchesSemantics) {
  bdd::Manager m(3);
  auto f = m.lor(m.land(m.var(0), m.var(1)), m.var(2));
  for (int bits = 0; bits < 8; ++bits) {
    std::vector<bool> a{(bits & 1) != 0, (bits & 2) != 0, (bits & 4) != 0};
    EXPECT_EQ(m.eval(f, a), (a[0] && a[1]) || a[2]);
  }
}

TEST(Bdd, CofactorAndQuantification) {
  bdd::Manager m(2);
  auto f = m.land(m.var(0), m.var(1));
  EXPECT_EQ(m.cofactor(f, 0, true), m.var(1));
  EXPECT_EQ(m.cofactor(f, 0, false), kFalse);
  EXPECT_EQ(m.exists(f, 0), m.var(1));
  EXPECT_EQ(m.forall(f, 0), kFalse);
  auto g = m.lor(m.var(0), m.var(1));
  EXPECT_EQ(m.forall(g, 0), m.var(1));
  EXPECT_EQ(m.exists(g, 0), kTrue);
}

TEST(Bdd, Compose) {
  bdd::Manager m(3);
  // f = x0 XOR x1; substitute x1 := x2 AND x0.
  auto f = m.lxor(m.var(0), m.var(1));
  auto g = m.land(m.var(2), m.var(0));
  auto h = m.compose(f, 1, g);
  for (int bits = 0; bits < 8; ++bits) {
    std::vector<bool> a{(bits & 1) != 0, (bits & 2) != 0, (bits & 4) != 0};
    bool expect = a[0] != (a[2] && a[0]);
    EXPECT_EQ(m.eval(h, a), expect);
  }
}

TEST(Bdd, SatCountAndProbability) {
  bdd::Manager m(3);
  auto f = m.lor(m.land(m.var(0), m.var(1)), m.var(2));
  // Minterms: x2=1 (4) plus x0=x1=1,x2=0 (1) = 5.
  EXPECT_NEAR(m.sat_count(f), 5.0, 1e-9);
  std::vector<double> p{0.5, 0.5, 0.5};
  EXPECT_NEAR(m.probability(f, p), 5.0 / 8.0, 1e-12);
  std::vector<double> q{1.0, 1.0, 0.0};
  EXPECT_NEAR(m.probability(f, q), 1.0, 1e-12);
}

TEST(Bdd, SupportAndSize) {
  bdd::Manager m(4);
  auto f = m.land(m.var(0), m.var(3));
  auto s = m.support(f);
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s[0], 0u);
  EXPECT_EQ(s[1], 3u);
  EXPECT_EQ(m.size(f), 2u);
  EXPECT_EQ(m.size(kTrue), 0u);
}

TEST(Bdd, AnySat) {
  bdd::Manager m(2);
  EXPECT_FALSE(m.any_sat(kFalse).has_value());
  auto f = m.land(m.var(0), m.lnot(m.var(1)));
  auto a = m.any_sat(f);
  ASSERT_TRUE(a.has_value());
  EXPECT_TRUE(m.eval(f, *a));
}

TEST(Bdd, Cubes) {
  bdd::Manager m(2);
  auto f = m.lxor(m.var(0), m.var(1));
  auto cs = m.cubes(f, 2);
  ASSERT_EQ(cs.size(), 2u);
  EXPECT_EQ(cs[0], "01");
  EXPECT_EQ(cs[1], "10");
}

TEST(Bdd, NodeLimit) {
  bdd::Manager m(40, 64);  // absurdly small budget
  bdd::Ref f = kTrue;
  EXPECT_THROW(
      {
        for (unsigned v = 0; v < 40; ++v)
          f = m.land(f, m.lxor(m.var(v), m.var((v + 7) % 40)));
      },
      bdd::NodeLimitExceeded);
}

// ---- synthesis-scale substrate: complement edges, GC, sifting ----------

TEST(Bdd, ComplementEdgeConstantTimeNegation) {
  bdd::Manager m(4);
  ASSERT_TRUE(m.complement_edges());
  auto f = m.lor(m.land(m.var(0), m.var(1)), m.var(2));
  std::size_t pool = m.num_nodes();
  auto g = m.lnot(f);  // O(1): flips the tag bit, allocates nothing
  EXPECT_EQ(m.num_nodes(), pool);
  EXPECT_EQ(g, f ^ 1u);
  EXPECT_EQ(m.lnot(g), f);
  // Both polarities of a literal share one node (the hi-regular rule).
  EXPECT_EQ(bdd::regular(m.var(3)), bdd::regular(m.nvar(3)));
  EXPECT_EQ(m.nvar(3), m.lnot(m.var(3)));
}

// Differential against the no-complement build (the seed manager's
// encoding): random expression DAGs over 8 variables must compute the same
// functions in both modes, and the complement-edge pool must never be
// larger (node sharing across polarities only merges, never splits).
TEST(Bdd, ComplementDifferentialAgainstPlainBuild) {
  bdd::Config plain = bdd::default_config();
  plain.complement_edges = false;
  plain.auto_gc = false;
  bdd::Manager mc(8), mp(8, plain);
  ASSERT_FALSE(mp.complement_edges());
  std::vector<bdd::Ref> fc, fp;
  for (unsigned v = 0; v < 8; ++v) {
    fc.push_back(mc.var(v));
    fp.push_back(mp.var(v));
  }
  std::mt19937 rng(77);
  for (int i = 0; i < 150; ++i) {
    std::size_t a = rng() % fc.size(), b = rng() % fc.size();
    switch (rng() % 5) {
      case 0:
        fc.push_back(mc.land(fc[a], fc[b]));
        fp.push_back(mp.land(fp[a], fp[b]));
        break;
      case 1:
        fc.push_back(mc.lor(fc[a], fc[b]));
        fp.push_back(mp.lor(fp[a], fp[b]));
        break;
      case 2:
        fc.push_back(mc.lxor(fc[a], fc[b]));
        fp.push_back(mp.lxor(fp[a], fp[b]));
        break;
      case 3:
        fc.push_back(mc.lnot(fc[a]));
        fp.push_back(mp.lnot(fp[a]));
        break;
      default: {
        std::size_t c = rng() % fc.size();
        fc.push_back(mc.ite(fc[a], fc[b], fc[c]));
        fp.push_back(mp.ite(fp[a], fp[b], fp[c]));
        break;
      }
    }
  }
  for (int bits = 0; bits < 256; ++bits) {
    std::vector<bool> a(8);
    for (int v = 0; v < 8; ++v) a[v] = (bits >> v) & 1;
    for (std::size_t k = 8; k < fc.size(); k += 7)
      ASSERT_EQ(mc.eval(fc[k], a), mp.eval(fp[k], a)) << "fn " << k;
  }
  EXPECT_LE(mc.num_nodes(), mp.num_nodes());
  // Canonicity holds in both modes: equal functions got equal Refs, so
  // XOR-of-equals collapsed to the terminal without a differential check.
  EXPECT_EQ(mc.lxor(fc.back(), fc.back()), kFalse);
  EXPECT_EQ(mp.lxor(fp.back(), fp.back()), kFalse);
}

TEST(Bdd, GcChurnReusesFreedNodes) {
  bdd::Config cfg = bdd::default_config();
  cfg.auto_gc = false;
  bdd::Manager m(16, cfg);
  bdd::Manager m_nogc(16, cfg);  // same build, never collected
  std::vector<bdd::Ref> roots;
  for (unsigned v = 0; v + 1 < 16; v += 2)
    roots.push_back(m.ref(m.lxor(m.var(v), m.var(v + 1))));
  std::mt19937 rng(3);
  for (int round = 0; round < 50; ++round) {
    bdd::Ref t = kTrue, t2 = kTrue;
    for (int i = 0; i < 12; ++i) {
      unsigned a = rng() % 16, b = rng() % 16;
      t = m.land(t, m.lor(m.var(a), m.lnot(m.var(b))));
      t2 = m_nogc.land(t2, m_nogc.lor(m_nogc.var(a), m_nogc.lnot(m_nogc.var(b))));
    }
    m.gc();
  }
  EXPECT_EQ(m.gc_runs(), 50u);
  EXPECT_GT(m.gc_swept(), 0u);
  // Free-list reuse: the collected manager's node pool stays bounded by
  // round-local demand, while the uncollected twin accumulates every
  // round's churn.  Identical workload, so the gap is pure reclamation.
  EXPECT_LT(4 * m.num_nodes(), m_nogc.num_nodes());
  // Rooted functions survived every sweep, identity and value intact.
  for (int bits = 0; bits < 64; ++bits) {
    std::vector<bool> a(16);
    for (int v = 0; v < 16; ++v) a[v] = ((bits * 2654435761u) >> v) & 1;
    for (std::size_t k = 0; k < roots.size(); ++k)
      ASSERT_EQ(m.eval(roots[k], a), a[2 * k] != a[2 * k + 1]);
  }
  // deref + gc reclaims: dropping all roots empties the live set.
  for (bdd::Ref r : roots) m.deref(r);
  m.gc();
  EXPECT_EQ(m.live_nodes(), 0u);
}

TEST(Bdd, AutoGcCollectsDuringRootedBuild) {
  bdd::Config cfg = bdd::default_config();
  cfg.auto_gc = true;
  cfg.gc_trigger = 1u << 8;  // the configurable floor
  bdd::Manager m(12, cfg);
  ASSERT_TRUE(m.auto_gc_enabled());
  // build_into-style loop: the running function is rooted after every
  // step (the auto-GC contract), all intermediate scaffolding is garbage.
  std::mt19937 rng(11);
  bdd::Ref f = kFalse;
  m.ref(f);
  for (int i = 0; i < 200; ++i) {
    unsigned a = rng() % 12, b = rng() % 12, c = rng() % 12;
    // Each public call may collect, so both intermediates must be rooted
    // before the next call (the contract); only the per-call internals
    // are scaffolding the collector is free to sweep.
    bdd::Ref hi = m.ref(m.lxor(f, m.var(b)));
    bdd::Ref lo = m.ref(m.land(f, m.var(c)));
    bdd::Ref t = m.ref(m.ite(m.var(a), hi, lo));
    m.deref(hi);
    m.deref(lo);
    m.deref(f);
    f = t;
  }
  EXPECT_GT(m.gc_runs(), 0u);
  EXPECT_GT(m.gc_swept(), 0u);
  EXPECT_LE(m.live_nodes(), m.num_nodes());
  // The function survived the collections: replay the same recurrence on
  // scalar booleans for a sample of assignments.
  std::vector<std::vector<bool>> samples;
  for (int s = 0; s < 32; ++s) {
    std::vector<bool> a(12);
    for (int v = 0; v < 12; ++v) a[v] = ((s * 40503u + 7u) >> v) & 1;
    samples.push_back(a);
  }
  std::mt19937 rng2(11);
  std::vector<bool> val(samples.size(), false);
  for (int i = 0; i < 200; ++i) {
    unsigned a = rng2() % 12, b = rng2() % 12, c = rng2() % 12;
    for (std::size_t s = 0; s < samples.size(); ++s)
      val[s] = samples[s][a] ? (val[s] != samples[s][b])
                             : (val[s] && samples[s][c]);
  }
  for (std::size_t s = 0; s < samples.size(); ++s)
    ASSERT_EQ(m.eval(f, samples[s]), val[s]) << "sample " << s;
}

TEST(Bdd, SiftingPreservesFunctionsAndShrinksBlockedOrder) {
  bdd::Manager m(8);
  // x0x4 + x1x5 + x2x6 + x3x7: exponential in the blocked initial order
  // (operands 0-3 before 4-7), linear interleaved — the canonical sifting
  // test function.
  bdd::Ref f = kFalse;
  for (unsigned v = 0; v < 4; ++v)
    f = m.lor(f, m.land(m.var(v), m.var(v + 4)));
  m.ref(f);
  std::size_t before = m.size(f);
  m.sift();
  EXPECT_GT(m.sift_swaps(), 0u);
  EXPECT_LT(m.size(f), before);  // blocked order is strictly suboptimal
  auto check = [&] {
    for (int bits = 0; bits < 256; ++bits) {
      std::vector<bool> a(8);
      for (int v = 0; v < 8; ++v) a[v] = (bits >> v) & 1;
      bool expect = (a[0] && a[4]) || (a[1] && a[5]) || (a[2] && a[6]) ||
                    (a[3] && a[7]);
      ASSERT_EQ(m.eval(f, a), expect) << bits;
    }
  };
  check();
  // var_order stays a permutation and level_of stays its inverse.
  auto ord = m.var_order();
  ASSERT_EQ(ord.size(), 8u);
  for (unsigned l = 0; l < 8; ++l) EXPECT_EQ(m.level_of(ord[l]), l);
  std::sort(ord.begin(), ord.end());
  for (unsigned v = 0; v < 8; ++v) EXPECT_EQ(ord[v], v);
  // Activity-weighted sifting also preserves the function.
  std::vector<double> w{8, 7, 6, 5, 4, 3, 2, 1};
  bdd::Manager::SiftOptions so;
  so.weights = w;
  m.sift(so);
  check();
}

// ---- sifting pinned on the E27 family's cones ---------------------------

// Truth table of f over all of m's variables: bit a of the table is f under
// the assignment whose variable v is bit v of a.
std::vector<std::uint64_t> truth_table(const bdd::Manager& m, bdd::Ref f) {
  static constexpr std::uint64_t kLane[6] = {
      0xAAAAAAAAAAAAAAAAull, 0xCCCCCCCCCCCCCCCCull, 0xF0F0F0F0F0F0F0F0ull,
      0xFF00FF00FF00FF00ull, 0xFFFF0000FFFF0000ull, 0xFFFFFFFF00000000ull};
  const unsigned n = m.num_vars();
  const std::size_t words = n >= 6 ? std::size_t{1} << (n - 6) : 1;
  const std::uint64_t full =
      n >= 6 ? ~0ull : (std::uint64_t{1} << (1u << n)) - 1;
  std::unordered_map<std::uint32_t, std::vector<std::uint64_t>> memo;
  memo.emplace(0u, std::vector<std::uint64_t>(words, 0));  // regular = FALSE
  auto rec = [&](auto&& self,
                 std::uint32_t idx) -> const std::vector<std::uint64_t>& {
    if (auto it = memo.find(idx); it != memo.end()) return it->second;
    const bdd::Manager::Node nd = m.node(bdd::Ref{idx} << 1);
    const auto& lo = self(self, bdd::index_of(nd.lo));
    const auto& hi = self(self, bdd::index_of(nd.hi));
    const std::uint64_t lc = bdd::is_complemented(nd.lo) ? full : 0;
    const std::uint64_t hc = bdd::is_complemented(nd.hi) ? full : 0;
    std::vector<std::uint64_t> t(words);
    for (std::size_t w = 0; w < words; ++w) {
      std::uint64_t x = nd.var < 6 ? kLane[nd.var]
                        : ((w >> (nd.var - 6)) & 1) ? ~0ull : 0;
      t[w] = ((x & (hi[w] ^ hc)) | (~x & (lo[w] ^ lc))) & full;
    }
    return memo.emplace(idx, std::move(t)).first->second;
  };
  std::vector<std::uint64_t> out = rec(rec, bdd::index_of(f));
  if (bdd::is_complemented(f))
    for (auto& w : out) w ^= full;
  return out;
}

// Per-variable counts of the nodes reachable from `roots`.
std::vector<std::size_t> reachable_per_var(const bdd::Manager& m,
                                           const std::vector<bdd::Ref>& roots) {
  std::vector<std::size_t> counts(m.num_vars(), 0);
  std::vector<bool> seen(m.num_nodes(), false);
  std::vector<std::uint32_t> stack;
  for (bdd::Ref r : roots) stack.push_back(bdd::index_of(r));
  while (!stack.empty()) {
    std::uint32_t i = stack.back();
    stack.pop_back();
    if (i == 0 || seen[i]) continue;
    seen[i] = true;
    const auto& nd = m.node(bdd::Ref{i} << 1);
    ++counts[nd.var];
    stack.push_back(bdd::index_of(nd.lo));
    stack.push_back(bdd::index_of(nd.hi));
  }
  return counts;
}

// A sifted manager holds its rooted functions and nothing else: no garbage
// for gc() to sweep, and live nodes = the reachable per-variable counts.
void expect_garbage_free(bdd::Manager& m, const std::vector<bdd::Ref>& roots,
                         const std::string& what) {
  auto counts = reachable_per_var(m, roots);
  std::size_t sum = 0;
  for (std::size_t c : counts) sum += c;
  EXPECT_EQ(m.live_nodes(), sum) << what;
  EXPECT_EQ(m.gc(), 0u) << what;
}

std::vector<std::pair<std::string, Netlist>> e27_family() {
  std::vector<std::pair<std::string, Netlist>> fam;
  fam.emplace_back("mult4", bench::array_multiplier(4));
  fam.emplace_back("alu4", bench::alu(4));
  fam.emplace_back("addsub8", bench::alu_addsub(8));
  fam.emplace_back("dct8", bench::dct_butterfly(8));
  fam.emplace_back("cmp8", bench::comparator_gt(8));
  fam.emplace_back("csel16", bench::carry_select_adder(16, 4));
  return fam;
}

// Fixed per-variable weights in the range of switching activities.
std::vector<double> pinned_weights(std::size_t n) {
  std::vector<double> w(n);
  for (std::size_t v = 0; v < n; ++v)
    w[v] = 1e-3 + static_cast<double>((v * 7 + 3) % 11) / 10.0;
  return w;
}

// What one (circuit, weighting) sift run produced, summed over its cones;
// order_digest hashes every cone's final var_order().
struct SiftPin {
  std::string circuit;
  bool weighted;
  std::size_t cones, size, swaps, peak;
  std::uint64_t order_digest;
};

bool operator==(const SiftPin& a, const SiftPin& b) {
  return a.circuit == b.circuit && a.weighted == b.weighted &&
         a.cones == b.cones && a.size == b.size && a.swaps == b.swaps &&
         a.peak == b.peak && a.order_digest == b.order_digest;
}

std::ostream& operator<<(std::ostream& os, const SiftPin& p) {
  return os << "{\"" << p.circuit << "\", " << (p.weighted ? "true" : "false")
            << ", " << p.cones << ", " << p.size << ", " << p.swaps << ", "
            << p.peak << ", 0x" << std::hex << p.order_digest << std::dec
            << "ull}";
}

TEST(Bdd, SiftPinnedOnE27FamilyCones) {
  // Final orders, sizes, swap counts and peak live nodes of the engine's
  // cone builds (18-input cap), recorded before sifting became level-local:
  // the cost sequence is canonical, so every one of them is exact.
  const std::vector<SiftPin> expected = {
      {"mult4", false, 8, 146, 656, 1344, 0x717daf33588e999dull},
      {"mult4", true, 8, 167, 639, 1344, 0x7f20668021021ba5ull},
      {"alu4", false, 4, 43, 394, 85, 0x15899d955091dab3ull},
      {"alu4", true, 4, 43, 399, 85, 0xa62a2eac7437fadbull},
      {"addsub8", false, 9, 215, 2433, 537, 0xd0fbba4df8c8b615ull},
      {"addsub8", true, 9, 215, 2436, 537, 0xbd74c4efa7d0a7ddull},
      {"dct8", false, 18, 232, 3936, 652, 0x242173709d2c83d3ull},
      {"dct8", true, 18, 232, 3924, 652, 0xfbb04ad67760c91bull},
      {"cmp8", false, 1, 23, 480, 255, 0x181371f7eaaaa01eull},
      {"cmp8", true, 1, 23, 478, 255, 0x5ec1f1864fdd47eaull},
      {"csel16", false, 8, 117, 1860, 454, 0xc971cd06feca56dfull},
      {"csel16", true, 8, 114, 1865, 454, 0xa370d0266186a3e1ull},
  };
  std::vector<SiftPin> got;
  for (const auto& [name, net] : e27_family()) {
    for (bool weighted : {false, true}) {
      SiftPin pin{name, weighted, 0, 0, 0, 0, 0xcbf29ce484222325ull};
      for (NodeId root : logicopt::bdd_cone_roots(net)) {
        logicopt::BddCone c = logicopt::extract_bdd_cone(net, root);
        if (c.sources.size() > 18) continue;  // the engine's support cap
        bdd::Config cfg = bdd::default_config();
        cfg.node_limit = std::size_t{1} << 20;
        cfg.auto_gc = true;
        bdd::Manager m(static_cast<unsigned>(c.sources.size()), cfg);
        bdd::Ref f = logicopt::build_bdd_cone(m, net, c);
        auto before = truth_table(m, f);
        std::vector<double> w = pinned_weights(c.sources.size());
        bdd::Manager::SiftOptions so;
        if (weighted) so.weights = w;
        m.sift(so);
        const std::string what = name + " root " + std::to_string(root);
        ASSERT_EQ(truth_table(m, f), before) << what;
        expect_garbage_free(m, {f}, what);
        ++pin.cones;
        pin.size += m.size(f);
        pin.swaps += m.sift_swaps();
        pin.peak += m.peak_live_nodes();
        for (unsigned v : m.var_order())
          pin.order_digest = (pin.order_digest ^ (v + 1)) * 0x100000001b3ull;
        pin.order_digest = (pin.order_digest ^ 0xFFu) * 0x100000001b3ull;
      }
      got.push_back(pin);
    }
  }
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_EQ(got[i], expected[i]);
}

TEST(Bdd, SiftNodeLimitMidSiftLeavesNoGarbage) {
  // x0x1 + x2x3 + ... + x14x15, built bottom pair first in its best
  // (interleaved) order: every step reuses the tail, so the build stays
  // near the final size, while sifting x0 down through the order nearly
  // doubles the DAG and runs into the budget.
  auto build = [](bdd::Manager& m) {
    bdd::Ref f = m.ref(kFalse);
    for (unsigned k = 8; k-- > 0;) {
      bdd::Ref t = m.ref(m.lor(m.land(m.var(2 * k), m.var(2 * k + 1)), f));
      m.deref(f);
      m.gc();
      f = t;
    }
    return f;
  };
  bdd::Manager probe(16);
  bdd::Ref pf = build(probe);
  const std::size_t limit = probe.peak_live_nodes() + 2;
  bdd::Manager m(16, limit);
  bdd::Ref f = build(m);
  auto before = truth_table(m, f);
  EXPECT_THROW(m.sift(), bdd::NodeLimitExceeded);
  EXPECT_EQ(m.sift_swaps(), 5u);  // pinned: where the budget is hit
  EXPECT_EQ(truth_table(m, f), before);
  expect_garbage_free(m, {f}, "after the throw");
  // Still usable: the order is a permutation, and new work fits the budget
  // once the old function is dropped.
  auto ord = m.var_order();
  std::sort(ord.begin(), ord.end());
  for (unsigned v = 0; v < 16; ++v) EXPECT_EQ(ord[v], v);
  EXPECT_EQ(truth_table(m, m.lnot(f)), truth_table(probe, probe.lnot(pf)));
  m.deref(f);
  m.gc();
  EXPECT_EQ(m.live_nodes(), 0u);
  bdd::Ref g = m.land(m.var(0), m.var(15));
  EXPECT_EQ(truth_table(m, g),
            truth_table(probe, probe.land(probe.var(0), probe.var(15))));
}

TEST(Bdd, CountersFlushOnClearCachesAndDestruction) {
  core::metrics::reset();
  double after_clear = 0.0;
  {
    bdd::Manager m(4);
    m.land(m.var(0), m.var(1));
    m.clear_caches();  // flushes and zeroes the manager-local counters
    after_clear = core::metrics::value("bdd.nodes");
    EXPECT_GT(after_clear, 0.0);
    m.land(m.var(2), m.var(3));
  }  // destructor flushes what accrued after the clear — no double count
  EXPECT_GT(core::metrics::value("bdd.nodes"), after_clear);
  EXPECT_EQ(core::metrics::value("bdd.managers"), 1.0);
}

TEST(Bdd, PeakLiveReportsTheLargestManagerNotTheSum) {
  core::metrics::reset();
  for (unsigned n : {10u, 20u}) {
    bdd::Manager m(n);
    for (unsigned v = 0; v < n; ++v) m.var(v);  // one node per projection
    EXPECT_EQ(m.peak_live_nodes(), n);
  }
  EXPECT_EQ(core::metrics::value("bdd.peak_live"), 20.0);
}

TEST(Bdd, HalvedNodeLimitSucceedsWithComplementAndGc) {
  // 40-variable parity chain: one node per level with complement edges,
  // two per level without (both polarities of every tail parity are
  // distinct nodes in the plain encoding).  At a 96-node budget the plain
  // build — the seed manager's encoding — must throw, while complement
  // edges + auto-GC (sweeping the dead prefix parities) complete in half
  // the footprint.
  auto build_parity = [](bdd::Manager& m) {
    bdd::Ref f = m.ref(kFalse);
    for (unsigned v = 0; v < 40; ++v) {
      // var() is itself a public call that may collect, so the running
      // function stays rooted until the new tail parity is.
      bdd::Ref x = m.ref(m.var(v));
      bdd::Ref t = m.ref(m.lxor(f, x));
      m.deref(x);
      m.deref(f);
      f = t;
    }
    return f;
  };
  bdd::Config plain = bdd::default_config();
  plain.complement_edges = false;
  plain.auto_gc = true;
  plain.node_limit = 96;
  bdd::Manager mp(40, plain);
  EXPECT_THROW(build_parity(mp), bdd::NodeLimitExceeded);

  bdd::Config cfg = bdd::default_config();
  cfg.auto_gc = true;
  cfg.node_limit = 96;
  bdd::Manager m(40, cfg);
  bdd::Ref f = build_parity(m);
  EXPECT_LE(m.peak_live_nodes(), 96u);
  std::vector<bool> a(40, false);
  EXPECT_FALSE(m.eval(f, a));
  a[3] = true;
  EXPECT_TRUE(m.eval(f, a));
  a[17] = true;
  EXPECT_FALSE(m.eval(f, a));
}

TEST(BddNetlist, AgreesWithSimulation) {
  for (const auto& [name, net] : bench::default_suite()) {
    if (!net.dffs().empty() || net.inputs().size() > 24) continue;
    auto b = bdd::build_bdds(net);
    sim::LogicSim s(net);
    std::vector<std::uint64_t> pi(net.inputs().size());
    std::mt19937_64 rng(5);
    for (int round = 0; round < 4; ++round) {
      for (auto& w : pi) w = rng();
      auto frame = s.eval(pi);
      // Check lane 0 against BDD eval.
      std::vector<bool> assignment(b.mgr.num_vars(), false);
      for (std::size_t i = 0; i < net.inputs().size(); ++i)
        assignment[b.var_of.at(net.inputs()[i])] = (pi[i] & 1) != 0;
      for (NodeId o : net.outputs())
        EXPECT_EQ(b.mgr.eval(b.node_fn[o], assignment),
                  (frame[o] & 1) != 0)
            << name;
    }
  }
}

TEST(BddNetlist, EquivalenceDistinguishes) {
  auto rca = bench::ripple_carry_adder(8);
  auto csa = bench::carry_select_adder(8, 3);
  EXPECT_TRUE(bdd::equivalent_bdd(rca, csa));
  auto cmp = bench::comparator_gt(4);
  auto par = bench::parity_tree(8);
  EXPECT_FALSE(bdd::equivalent_bdd(cmp, par));
}

TEST(BddNetlist, SynthesizeBddRoundTrip) {
  auto net = bench::comparator_gt(4);
  auto b = bdd::build_bdds(net);
  Netlist rebuilt("rb");
  std::vector<NodeId> var_node(b.mgr.num_vars());
  for (NodeId pi : net.inputs())
    var_node[b.var_of.at(pi)] = rebuilt.add_input(net.node(pi).name);
  NodeId out = bdd::synthesize_bdd(rebuilt, b.mgr,
                                   b.node_fn[net.outputs()[0]], var_node);
  rebuilt.add_output(out, "gt");
  EXPECT_TRUE(sim::equivalent_random(net, rebuilt, 128, 9));
}

}  // namespace
}  // namespace lps
