// Two-level algebra tests: cubes, SOPs, division, kernels, factoring.

#include <gtest/gtest.h>

#include <random>
#include <set>

#include "sop/division.hpp"
#include "sop/factoring.hpp"
#include "sop/kernels.hpp"
#include "sop/sop.hpp"

namespace lps::sop {
namespace {

TEST(Cube, ParseAndLiterals) {
  Cube c = Cube::parse("1-0");
  EXPECT_TRUE(c.has_pos(0));
  EXPECT_FALSE(c.has_var(1));
  EXPECT_TRUE(c.has_neg(2));
  EXPECT_EQ(c.num_literals(), 2u);
  EXPECT_EQ(c.to_string(), "1-0");
}

TEST(Cube, ContainmentIsPointSetContainment) {
  // "11-" (a&b) is contained in "1--" (a).
  Cube ab = Cube::parse("11-");
  Cube a = Cube::parse("1--");
  EXPECT_TRUE(ab.contained_in(a));
  EXPECT_FALSE(a.contained_in(ab));
}

TEST(Cube, IntersectAndContradiction) {
  Cube x = Cube::parse("1--");
  Cube y = Cube::parse("0--");
  EXPECT_TRUE(x.intersect(y).contradictory());
  Cube z = Cube::parse("-1-");
  Cube xz = x.intersect(z);
  EXPECT_EQ(xz.to_string(), "11-");
}

TEST(Cube, MinusAndCommon) {
  Cube c = Cube::parse("110");
  Cube d = Cube::parse("1--");
  EXPECT_EQ(c.minus(d).to_string(), "-10");
  EXPECT_EQ(c.common(Cube::parse("1-0")).to_string(), "1-0");
}

TEST(Sop, ParseEvalMinimize) {
  Sop f = Sop::parse(3, "11- + 1-- + 0-1");
  // "11-" ⊂ "1--": SCC removes it.
  f.minimize_scc();
  EXPECT_EQ(f.num_cubes(), 2u);
  std::vector<bool> a{true, false, false};
  EXPECT_TRUE(f.eval(a));
  std::vector<bool> b{false, false, false};
  EXPECT_FALSE(f.eval(b));
}

TEST(Sop, CubeFreeAndCommonCube) {
  Sop f = Sop::parse(3, "11- + 1-1");  // common literal a
  EXPECT_FALSE(f.is_cube_free());
  EXPECT_EQ(f.largest_common_cube().to_string(), "1--");
  Sop g = Sop::parse(3, "1-- + -1-");
  EXPECT_TRUE(g.is_cube_free());
}

TEST(Division, ByCube) {
  // f = a·b + a·c + d;  f / a = b + c, remainder d.
  Sop f = Sop::parse(4, "11-- + 1-1- + ---1");
  auto r = divide(f, Cube::parse("1---"));
  EXPECT_EQ(r.quotient.num_cubes(), 2u);
  EXPECT_EQ(r.remainder.num_cubes(), 1u);
}

TEST(Division, BySopReconstructs) {
  // f = (a+b)(c+d) + e  -> divide by (c+d): q=(a+b), r=e.
  Sop f = Sop::parse(5, "1-1-- + 1--1- + -11-- + -1-1- + ----1");
  Sop d = Sop::parse(5, "--1-- + ---1-");
  auto r = divide(f, d);
  EXPECT_EQ(r.quotient.num_cubes(), 2u);
  EXPECT_EQ(r.remainder.num_cubes(), 1u);
  // Verify f == q*d + r pointwise.
  Sop rebuilt = add(multiply(r.quotient, d), r.remainder);
  for (int m = 0; m < 32; ++m) {
    std::vector<bool> a;
    for (int b = 0; b < 5; ++b) a.push_back((m >> b & 1) != 0);
    EXPECT_EQ(f.eval(a), rebuilt.eval(a)) << m;
  }
}

TEST(Division, NonDivisorGivesEmptyQuotient) {
  Sop f = Sop::parse(3, "11- + 0-1");
  Sop d = Sop::parse(3, "--1 + 1--");
  auto r = divide(f, d);
  EXPECT_TRUE(r.quotient.empty());
  EXPECT_EQ(r.remainder.num_cubes(), f.num_cubes());
}

TEST(Kernels, ClassicExample) {
  // f = a·c + a·d + b·c + b·d: kernels include (a+b) and (c+d).
  Sop f = Sop::parse(4, "1-1- + 1--1 + -11- + -1-1");
  auto ks = kernels(f);
  bool found_ab = false, found_cd = false;
  for (const auto& k : ks) {
    if (k.kernel == Sop::parse(4, "1--- + -1--")) found_ab = true;
    if (k.kernel == Sop::parse(4, "--1- + ---1")) found_cd = true;
  }
  EXPECT_TRUE(found_ab);
  EXPECT_TRUE(found_cd);
}

TEST(Kernels, CubeFreeProperty) {
  Sop f = Sop::parse(5, "11--- + 1-1-- + --11- + ---11 + 1---1");
  for (const auto& k : kernels(f)) {
    EXPECT_TRUE(k.kernel.is_cube_free());
    EXPECT_GE(k.kernel.num_cubes(), 2u);
  }
}

TEST(Kernels, ValuePositiveForSharedDivisor) {
  Sop f = Sop::parse(4, "1-1- + 1--1 + -11- + -1-1");
  Sop k = Sop::parse(4, "--1- + ---1");
  EXPECT_GT(kernel_value(f, k), 0);
}

TEST(Factor, ClassicExampleShrinks) {
  Sop f = Sop::parse(4, "1-1- + 1--1 + -11- + -1-1");
  Expr e = factor(f);
  EXPECT_EQ(f.num_literals(), 8u);
  EXPECT_EQ(e.num_literals(), 4u);  // (a+b)(c+d)
  // Function preserved.
  for (int m = 0; m < 16; ++m) {
    std::vector<bool> a;
    for (int b = 0; b < 4; ++b) a.push_back((m >> b & 1) != 0);
    EXPECT_EQ(f.eval(a), e.eval(a));
  }
}

TEST(Factor, ExprToString) {
  Sop f = Sop::parse(2, "11");
  Expr e = factor(f);
  EXPECT_EQ(e.to_string({"a", "b"}), "a*b");
}

// Window resynthesis skips factoring when the cover's distinct literals
// alone already cost as much as the window: that bound holds because
// algebraic factoring keeps every literal of an SCC-minimal cover.
TEST(Factor, WeightedFactoringKeepsEveryLiteralOfTheCover) {
  std::mt19937 rng(77);
  auto literals = [](auto&& self, const Expr& e, std::set<unsigned>& out)
      -> void {
    if (e.kind == Expr::Kind::Lit) out.insert(2 * e.var + e.negated);
    for (const auto& k : e.kids) self(self, k, out);
  };
  for (int trial = 0; trial < 200; ++trial) {
    unsigned nv = 3 + rng() % 6;
    Sop f(nv);
    int cubes = 2 + static_cast<int>(rng() % 8);
    for (int c = 0; c < cubes; ++c) {
      Cube cu(nv);
      for (unsigned v = 0; v < nv; ++v) {
        switch (rng() % 3) {
          case 0: cu.set_pos(v); break;
          case 1: cu.set_neg(v); break;
          default: break;
        }
      }
      f.add_cube(cu);
    }
    f.minimize_scc();
    std::set<unsigned> in_cover, in_expr;
    for (const auto& c : f.cubes())
      for (unsigned v = 0; v < nv; ++v) {
        if (c.has_pos(v)) in_cover.insert(2 * v);
        if (c.has_neg(v)) in_cover.insert(2 * v + 1);
      }
    std::vector<double> w(nv);
    for (auto& x : w) x = 0.05 + (rng() % 100) / 100.0;
    literals(literals, factor_weighted(f, w), in_expr);
    EXPECT_EQ(in_cover, in_expr) << f.to_string();
  }
}

// Property sweep: random SOPs, both factorings preserve function.
class FactorProperty : public ::testing::TestWithParam<int> {};

TEST_P(FactorProperty, FactoringsPreserveFunction) {
  std::mt19937 rng(GetParam());
  unsigned nv = 5 + rng() % 3;
  Sop f(nv);
  int cubes = 3 + static_cast<int>(rng() % 6);
  for (int c = 0; c < cubes; ++c) {
    Cube cu(nv);
    for (unsigned v = 0; v < nv; ++v) {
      switch (rng() % 3) {
        case 0: cu.set_pos(v); break;
        case 1: cu.set_neg(v); break;
        default: break;
      }
    }
    if (!cu.contradictory() && cu.num_literals() > 0) f.add_cube(cu);
  }
  if (f.empty()) return;
  Expr lit = factor(f);
  std::vector<double> w(nv);
  for (auto& x : w) x = 0.1 + 0.8 * (rng() % 100) / 100.0;
  Expr pow = factor_weighted(f, w);
  for (int m = 0; m < (1 << nv); ++m) {
    std::vector<bool> a;
    for (unsigned b = 0; b < nv; ++b) a.push_back((m >> b & 1) != 0);
    ASSERT_EQ(f.eval(a), lit.eval(a)) << "literal factoring seed " << GetParam();
    ASSERT_EQ(f.eval(a), pow.eval(a)) << "power factoring seed " << GetParam();
  }
  // Flattening back must also agree.
  Sop flat = to_sop(lit, nv);
  for (int m = 0; m < (1 << nv); ++m) {
    std::vector<bool> a;
    for (unsigned b = 0; b < nv; ++b) a.push_back((m >> b & 1) != 0);
    ASSERT_EQ(f.eval(a), flat.eval(a));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FactorProperty, ::testing::Range(1, 25));

}  // namespace
}  // namespace lps::sop
