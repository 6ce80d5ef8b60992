#include "sop/minimize.hpp"

#include <algorithm>
#include <cstdint>

namespace lps::sop {

namespace {

// Cofactor of an SOP with respect to a single literal (var=value).
Sop literal_cofactor(const Sop& f, unsigned v, bool value) {
  Sop r(f.num_vars());
  for (const auto& c : f.cubes()) {
    if (value ? c.has_neg(v) : c.has_pos(v)) continue;  // cube vanishes
    Cube c2 = c;
    c2.clear_var(v);
    r.add_cube(std::move(c2));
  }
  return r;
}

// Most binate variable: appears in both phases in the most cubes.
int pick_split_var(const Sop& f) {
  int best = -1;
  int best_score = -1;
  for (unsigned v = 0; v < f.num_vars(); ++v) {
    int pos = 0, neg = 0;
    for (const auto& c : f.cubes()) {
      if (c.has_pos(v)) ++pos;
      if (c.has_neg(v)) ++neg;
    }
    if (pos + neg == 0) continue;
    int score = std::min(pos, neg) * 1000 + pos + neg;
    if (score > best_score) {
      best_score = score;
      best = static_cast<int>(v);
    }
  }
  return best;
}

}  // namespace

bool tautology(const Sop& f) {
  for (const auto& c : f.cubes())
    if (c.num_literals() == 0) return true;
  if (f.empty()) return false;
  int v = pick_split_var(f);
  if (v < 0) return false;  // no literals and no universal cube
  return tautology(literal_cofactor(f, v, false)) &&
         tautology(literal_cofactor(f, v, true));
}

bool cube_covered_by_cofactors(const Cube& c, const Sop& f) {
  // f covers c iff f cofactored by c is a tautology.
  Sop g = f;
  for (unsigned v = 0; v < c.num_vars(); ++v) {
    if (c.has_pos(v)) g = literal_cofactor(g, v, true);
    if (c.has_neg(v)) g = literal_cofactor(g, v, false);
  }
  return tautology(g);
}

namespace {

constexpr std::uint64_t kVarWord[6] = {
    0xAAAAAAAAAAAAAAAAull, 0xCCCCCCCCCCCCCCCCull, 0xF0F0F0F0F0F0F0F0ull,
    0xFF00FF00FF00FF00ull, 0xFFFF0000FFFF0000ull, 0xFFFFFFFF00000000ull};

}  // namespace

std::uint64_t var_table_word(unsigned v, std::size_t w) {
  if (v < 6) return kVarWord[v];
  return (w >> (v - 6) & 1) ? ~0ull : 0;
}

namespace {

// Minterm-table form of a cube over n <= kTableVars variables
// (var_table_word's layout): the cube's minterms in word w are `low` when
// (w & hi_care) == hi_val and none otherwise.  A contradictory cube is
// empty, as in the cofactor recursion.
constexpr unsigned kTableVars = 12;

struct TableCube {
  std::uint64_t low;
  unsigned hi_care = 0, hi_val = 0;
  bool in_word(unsigned w) const { return (w & hi_care) == hi_val; }
};

TableCube table_cube(const Cube& c, unsigned n) {
  TableCube t{n >= 6 ? ~0ull : (1ull << (1u << n)) - 1};
  for (unsigned v = 0; v < n; ++v) {
    bool pos = c.has_pos(v), neg = c.has_neg(v);
    if (pos && neg) return {0};
    if (!pos && !neg) continue;
    if (v < 6) {
      t.low &= pos ? kVarWord[v] : ~kVarWord[v];
    } else {
      t.hi_care |= 1u << (v - 6);
      if (pos) t.hi_val |= 1u << (v - 6);
    }
  }
  return t;
}

}  // namespace

bool cube_covered(const Cube& c, const Sop& f) {
  const unsigned n = f.num_vars();
  if (n > kTableVars || c.num_vars() != n || c.contradictory())
    return cube_covered_by_cofactors(c, f);
  // need[i]: c's minterms in table word words[i] that no cube of f covers yet.
  const TableCube tc = table_cube(c, n);
  const unsigned n_words = n > 6 ? 1u << (n - 6) : 1u;
  unsigned words[1u << (kTableVars - 6)];
  std::uint64_t need[1u << (kTableVars - 6)];
  unsigned k = 0;
  for (unsigned w = 0; w < n_words; ++w)
    if (tc.in_word(w)) {
      words[k] = w;
      need[k++] = tc.low;
    }
  for (const auto& fc : f.cubes()) {
    const TableCube t = table_cube(fc, n);
    std::uint64_t left = 0;
    for (unsigned i = 0; i < k; ++i) {
      if (t.in_word(words[i])) need[i] &= ~t.low;
      left |= need[i];
    }
    if (left == 0) return true;
  }
  for (unsigned i = 0; i < k; ++i)
    if (need[i] != 0) return false;
  return true;
}

bool sop_equal(const Sop& a, const Sop& b) {
  for (const auto& c : a.cubes())
    if (!cube_covered(c, b)) return false;
  for (const auto& c : b.cubes())
    if (!cube_covered(c, a)) return false;
  return true;
}

namespace {

Sop union_of(const Sop& a, const Sop& b) {
  Sop r = a;
  for (const auto& c : b.cubes()) r.add_cube(c);
  return r;
}

// Expand every cube against the onset+dc bound; drop newly covered cubes.
bool expand_pass(Sop& cover, const Sop& bound) {
  bool changed = false;
  // Largest cubes first give the strongest covers.
  std::sort(cover.cubes().begin(), cover.cubes().end(),
            [](const Cube& a, const Cube& b) {
              return a.num_literals() < b.num_literals();
            });
  for (std::size_t i = 0; i < cover.cubes().size(); ++i) {
    Cube& c = cover.cubes()[i];
    for (unsigned v = 0; v < cover.num_vars(); ++v) {
      if (!c.has_var(v)) continue;
      Cube trial = c;
      trial.clear_var(v);
      if (cube_covered(trial, bound)) {
        c = trial;
        changed = true;
      }
    }
  }
  // Remove cubes covered by a single other (SCC) — cheap cleanup.
  cover.minimize_scc();
  return changed;
}

// Remove cubes covered by the rest of the cover plus dc.
bool irredundant_pass(Sop& cover, const Sop& dc) {
  bool changed = false;
  for (std::size_t i = 0; i < cover.cubes().size();) {
    Sop rest(cover.num_vars());
    for (std::size_t j = 0; j < cover.cubes().size(); ++j)
      if (j != i) rest.add_cube(cover.cubes()[j]);
    Sop bound = union_of(rest, dc);
    if (cube_covered(cover.cubes()[i], bound)) {
      cover.cubes().erase(cover.cubes().begin() + i);
      changed = true;
    } else {
      ++i;
    }
  }
  return changed;
}

// Shrink cubes while the cover still covers the required onset.
bool reduce_pass(Sop& cover, const Sop& onset, const Sop& dc) {
  bool changed = false;
  for (std::size_t i = 0; i < cover.cubes().size(); ++i) {
    for (unsigned v = 0; v < cover.num_vars(); ++v) {
      if (cover.cubes()[i].has_var(v)) continue;
      for (bool phase : {false, true}) {
        Cube trial = cover.cubes()[i];
        if (phase)
          trial.set_pos(v);
        else
          trial.set_neg(v);
        Cube saved = cover.cubes()[i];
        cover.cubes()[i] = trial;
        // Still a valid cover of the onset?
        Sop bound = union_of(cover, dc);
        bool ok = true;
        for (const auto& oc : onset.cubes())
          if (!cube_covered(oc, bound)) {
            ok = false;
            break;
          }
        if (ok) {
          changed = true;
          break;  // keep the shrink; move to next variable
        }
        cover.cubes()[i] = saved;
      }
    }
  }
  return changed;
}

}  // namespace

Sop minimize(const Sop& f, const Sop& dc, MinimizeStats* stats) {
  Sop cover = f;
  cover.minimize_scc();
  if (stats) {
    stats->cubes_before = static_cast<unsigned>(cover.num_cubes());
    stats->literals_before = cover.num_literals();
  }
  Sop bound = union_of(f, dc);

  int iter = 0;
  unsigned best_lits = cover.num_literals() + 1;
  while (iter < 4 && cover.num_literals() < best_lits) {
    best_lits = cover.num_literals();
    expand_pass(cover, bound);
    irredundant_pass(cover, dc);
    if (iter + 1 < 4) reduce_pass(cover, f, dc);
    expand_pass(cover, bound);
    irredundant_pass(cover, dc);
    ++iter;
  }
  if (stats) {
    stats->cubes_after = static_cast<unsigned>(cover.num_cubes());
    stats->literals_after = cover.num_literals();
    stats->iterations = iter;
  }
  return cover;
}

}  // namespace lps::sop
