// minimize.hpp — heuristic two-level minimization (Espresso-style loop).
//
// The survey leans on "a comprehensive treatment of combinational logic
// synthesis methods" [13]; the workhorse there is the two-level
// expand / irredundant / reduce loop.  This is a faithful small-scale
// implementation over the cube algebra of cube.hpp:
//   expand      — grow each cube literal-by-literal while it stays inside
//                 the function (onset ∪ don't-care set);
//   irredundant — drop cubes covered by the rest of the cover;
//   reduce      — shrink cubes to their essential part to open new expand
//                 directions.
// Containment checks are exact (minterm tables on small covers, cofactor
// recursion on wide ones), so the result is a verified cover of the
// original function.  Don't-care input makes this the natural consumer of
// the ODC sets from logicopt/dontcare.

#pragma once

#include <cstddef>
#include <cstdint>

#include "sop/sop.hpp"

namespace lps::sop {

struct MinimizeStats {
  unsigned cubes_before = 0;
  unsigned cubes_after = 0;
  unsigned literals_before = 0;
  unsigned literals_after = 0;
  int iterations = 0;
};

/// Does cube `c` lie entirely inside `f` (i.e. f covers c)?  Exact: up to
/// 12 variables it compares minterm bit-masks, above that (or for a
/// contradictory `c`) it runs cube_covered_by_cofactors.
bool cube_covered(const Cube& c, const Sop& f);
/// The same question by cofactor-and-tautology recursion — the path for
/// wide covers and the reference the minterm-table path is tested against.
bool cube_covered_by_cofactors(const Cube& c, const Sop& f);

/// Word `w` of variable `v`'s minterm table, the layout cube_covered
/// compares in: minterm m (variable v = bit v of m) sits at bit m % 64 of
/// word m / 64, so variables 0..5 select bits inside a word and 6.. words.
std::uint64_t var_table_word(unsigned v, std::size_t w);

/// Is f a tautology?  (Exact; exponential worst case, fine at test scale.)
bool tautology(const Sop& f);

/// Exact equivalence of two SOPs over the same variable universe.
bool sop_equal(const Sop& a, const Sop& b);

/// Espresso-style minimization of `f` with optional don't-care set `dc`.
/// Returns a cover g with  f ⊆ g ⊆ f ∪ dc  and (heuristically) fewer
/// literals.  Deterministic.
Sop minimize(const Sop& f, const Sop& dc, MinimizeStats* stats = nullptr);
inline Sop minimize(const Sop& f, MinimizeStats* stats = nullptr) {
  return minimize(f, Sop(f.num_vars()), stats);
}

}  // namespace lps::sop
