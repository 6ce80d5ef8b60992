#include "logicopt/resynth.hpp"

#include <algorithm>
#include <optional>
#include <set>
#include <stdexcept>

#include "bdd/bdd_netlist.hpp"
#include "core/metrics.hpp"
#include "core/parallel.hpp"
#include "power/incremental.hpp"
#include "sim/compiled.hpp"
#include "sop/factoring.hpp"
#include "sop/minimize.hpp"

namespace lps::logicopt {

namespace {

// Two-level fanin window around `n`: interior = {n} ∪ gate fanins that are
// themselves logic gates; boundary = everything feeding the interior from
// outside.  Returns false if the boundary exceeds the budget even after
// retrying with the one-level window; `capped` is set in that case so the
// caller can surface the truncation (it is a tuning signal, not a defect).
bool build_window(const Netlist& net, NodeId n, int max_inputs,
                  std::vector<NodeId>& interior,
                  std::vector<NodeId>& boundary, bool* capped = nullptr) {
  interior.clear();
  boundary.clear();
  std::set<NodeId> in_set{n};
  for (NodeId f : net.node(n).fanins) {
    const Node& fd = net.node(f);
    if (!is_source(fd.type) && fd.type != GateType::Dff &&
        fd.fanins.size() <= 4)
      in_set.insert(f);
  }
  std::set<NodeId> bset;
  for (NodeId m : in_set)
    for (NodeId f : net.node(m).fanins)
      if (!in_set.count(f)) bset.insert(f);
  if (static_cast<int>(bset.size()) > max_inputs) {
    // Retry with the one-level window (just the node itself).
    in_set = {n};
    bset.clear();
    for (NodeId f : net.node(n).fanins) bset.insert(f);
    if (static_cast<int>(bset.size()) > max_inputs) {
      if (capped) *capped = true;
      return false;
    }
  }
  interior.assign(in_set.begin(), in_set.end());
  boundary.assign(bset.begin(), bset.end());
  return true;
}

// Node n's local function as a minterm table over `boundary` (boundary[i]
// is bit i of the minterm) in sop::var_table_word's layout, 64 minterms per
// word: the interior is evaluated once per word in a local topological
// order.
std::vector<std::uint64_t> tabulate_window(
    const Netlist& net, NodeId n, const std::vector<NodeId>& interior,
    const std::vector<NodeId>& boundary) {
  const std::size_t k = boundary.size();
  const std::size_t W = k > 6 ? std::size_t{1} << (k - 6) : 1;
  // Slot ids: the boundary, then the interior as it gets ordered.
  std::vector<NodeId> ids(boundary);
  std::vector<std::uint64_t> val(k * W);
  for (std::size_t i = 0; i < k; ++i)
    for (std::size_t w = 0; w < W; ++w)
      val[i * W + w] = sop::var_table_word(static_cast<unsigned>(i), w);
  auto slot = [&ids](NodeId id) -> std::size_t {
    return static_cast<std::size_t>(
        std::find(ids.begin(), ids.end(), id) - ids.begin());
  };
  std::vector<NodeId> pending(interior);
  std::vector<std::uint64_t> in;
  while (!pending.empty()) {
    auto ready = std::find_if(pending.begin(), pending.end(), [&](NodeId id) {
      for (NodeId f : net.node(id).fanins)
        if (slot(f) == ids.size()) return false;
      return true;
    });
    if (ready == pending.end())
      throw std::logic_error("resynth: window interior is not acyclic");
    const Node& nd = net.node(*ready);
    std::size_t base = val.size();
    val.resize(base + W);
    in.resize(nd.fanins.size());
    for (std::size_t w = 0; w < W; ++w) {
      for (std::size_t j = 0; j < in.size(); ++j)
        in[j] = val[slot(nd.fanins[j]) * W + w];
      val[base + w] = eval_gate(nd.type, in);
    }
    ids.push_back(*ready);
    pending.erase(ready);
  }
  std::size_t s = slot(n);
  return {val.begin() + static_cast<std::ptrdiff_t>(s * W),
          val.begin() + static_cast<std::ptrdiff_t>((s + 1) * W)};
}

// Gate cost of realizing a factored expression: one literal per AND/OR
// input plus one single-input gate per negated literal.
int expr_cost(const sop::Expr& e) {
  switch (e.kind) {
    case sop::Expr::Kind::Const0:
    case sop::Expr::Kind::Const1:
      return 0;
    case sop::Expr::Kind::Lit:
      return e.negated ? 2 : 1;
    default: {
      int c = 0;
      for (const auto& k : e.kids) c += expr_cost(k);
      return c;
    }
  }
}

// A lower bound on expr_cost of any factored form of `cover`: algebraic
// factoring keeps every literal of an SCC-minimal cover at least once, so
// each distinct literal costs at least 1, or 2 when negated.
int cost_floor(const sop::Sop& cover) {
  int floor = 0;
  for (unsigned v = 0; v < cover.num_vars(); ++v) {
    bool pos = false, neg = false;
    for (const auto& c : cover.cubes()) {
      pos = pos || c.has_pos(v);
      neg = neg || c.has_neg(v);
    }
    floor += (pos ? 1 : 0) + (neg ? 2 : 0);
  }
  return floor;
}

// Reachability filter: kSimWords words of fixed-seed splitmix64 patterns
// per BDD variable (512 assignments of the primary inputs and register
// outputs).  A boundary minterm seen among them is reachable; only the
// rest go to the BDD conjunction.
constexpr std::size_t kSimWords = 8;
constexpr std::uint64_t kPatternSeed = 0x5E5EED5EEDull;

// The round-start netlist simulated on the filter patterns: node id x's
// words at [x * kSimWords, (x + 1) * kSimWords).  Kept rewrites preserve
// every surviving node's global function, so the words stay valid for the
// whole round.
std::vector<std::uint64_t> simulate_round(const Netlist& net,
                                          const bdd::NetlistBdds& bdds) {
  std::vector<std::uint64_t> val(net.size() * kSimWords, 0);
  std::uint64_t k = 0;
  for (NodeId v : bdds.var_node)
    for (std::size_t w = 0; w < kSimWords; ++w)
      val[v * kSimWords + w] = core::shard_seed(kPatternSeed, k++);
  sim::CompiledSim(net).exec_all(val.data(), kSimWords);
  return val;
}

}  // namespace

ResynthResult resynthesize_windows(Netlist& net,
                                   const std::vector<double>& toggles,
                                   const ResynthOptions& opt) {
  ResynthResult res;
  res.gates_before = net.num_gates();

  // The cost oracle: a cone-scoped incremental analyzer the pass owns and
  // refreshes after every kept rewrite, so each window is weighted by the
  // switching of the circuit as it *currently* stands.  The caller's
  // activity vector is only the fallback when the analyzer cannot be built
  // or is dropped: it describes the pre-pass circuit, and scores nodes
  // created by earlier kept rewrites as toggle-free.
  std::optional<power::IncrementalAnalyzer> inc;
  try {
    power::AnalysisOptions ao;
    ao.mode = power::ActivityMode::ZeroDelay;
    ao.n_vectors = opt.rescore_vectors;
    ao.seed = opt.rescore_seed;
    inc.emplace(net, ao);
  } catch (const std::exception&) {
    core::metrics::count("logicopt.resynth.rescore_dropped");
  }
  auto tog = [&](NodeId id) -> double {
    const std::vector<double>& t =
        inc ? inc->analysis().toggles_per_cycle : toggles;
    return id < t.size() ? t[id] : 0.0;
  };

  // Boundary minterms tabulated, found reachable by simulation, and sent to
  // the BDD reachability check.
  double minterms = 0, sim_reached = 0, bdd_checked = 0;

  // Cap reporting shared by every exit path (satellite of the silent-cap
  // fix: truncation always leaves a result field, a metric and a note).
  auto finalize = [&](std::size_t gates_after) -> ResynthResult& {
    core::metrics::count("logicopt.resynth.minterms", minterms);
    core::metrics::count("logicopt.resynth.sim_reached", sim_reached);
    core::metrics::count("logicopt.resynth.bdd_checked", bdd_checked);
    if (res.rewrites_capped)
      core::metrics::count("logicopt.resynth.rewrites_capped");
    res.gates_after = gates_after;
    if (res.windows_capped > 0 || res.rewrites_capped) {
      res.note = "resynth caps hit:";
      if (res.windows_capped > 0)
        res.note += " " + std::to_string(res.windows_capped) +
                    " window(s) over max_window_inputs=" +
                    std::to_string(opt.max_window_inputs);
      if (res.rewrites_capped)
        res.note += std::string(res.windows_capped > 0 ? ";" : "") +
                    " max_rewrites=" + std::to_string(opt.max_rewrites) +
                    " budget exhausted";
    }
    return res;
  };

  // One candidate window: extract it, tabulate the node's local function,
  // mark unreachable boundary patterns as don't-cares, minimize, factor,
  // and rebuild when the factored form is strictly cheaper.
  auto examine = [&](NodeId n, bdd::NetlistBdds& bdds,
                     const std::vector<std::uint64_t>& simval) {
    if (net.is_dead(n)) return;  // consumed by an earlier rewrite
    std::vector<NodeId> interior, boundary;
    bool win_capped = false;
    if (!build_window(net, n, opt.max_window_inputs, interior, boundary,
                      &win_capped)) {
      if (win_capped) {
        ++res.windows_capped;
        core::metrics::count("logicopt.resynth.capped");
      }
      return;
    }
    // Rewrites may have created nodes without BDDs; skip such windows.
    for (NodeId b : boundary)
      if (b >= bdds.node_fn.size()) return;
    ++res.windows_examined;

    auto& m = bdds.mgr;
    // Safe point: between windows only the rooted global functions are
    // live; shed accumulated reachability scaffolding before it can hit
    // the budget.
    if (m.live_nodes() >= opt.bdd_limit / 2) m.gc();
    const unsigned k = static_cast<unsigned>(boundary.size());
    // Replacement-cost baseline: the node's own literals plus those of
    // interior helpers that exist only for this node (single fanout).
    int window_lits = static_cast<int>(net.node(n).fanins.size());
    for (NodeId w : interior) {
      if (w == n) continue;
      if (net.node(w).fanouts.size() == 1)
        window_lits += static_cast<int>(net.node(w).fanins.size());
    }
    const std::vector<std::uint64_t> table =
        tabulate_window(net, n, interior, boundary);
    // seen[m]: boundary minterm m occurs among the simulated patterns.
    std::vector<char> seen(std::size_t{1} << k, 0);
    for (std::size_t w = 0; w < kSimWords; ++w)
      for (unsigned bit = 0; bit < 64; ++bit) {
        unsigned minterm = 0;
        for (unsigned i = 0; i < k; ++i)
          minterm |= static_cast<unsigned>(
                         simval[boundary[i] * kSimWords + w] >> bit & 1)
                     << i;
        seen[minterm] = 1;
      }

    sop::Sop onset(k), dcset(k);
    for (unsigned minterm = 0; minterm < (1u << k); ++minterm) {
      sop::Cube c(k);
      for (unsigned i = 0; i < k; ++i) {
        if (minterm >> i & 1)
          c.set_pos(i);
        else
          c.set_neg(i);
      }
      ++minterms;
      if (seen[minterm]) {
        ++sim_reached;
      } else {
        // Controllability DC: can any PI assignment realize this boundary
        // pattern?  Conjunction of (boundary fn XNOR bit).
        ++bdd_checked;
        bdd::Ref reach = bdd::kTrue;
        for (unsigned i = 0; i < k && reach != bdd::kFalse; ++i) {
          bdd::Ref f = bdds.node_fn[boundary[i]];
          reach = m.land(reach, (minterm >> i & 1) ? f : m.lnot(f));
        }
        if (reach == bdd::kFalse) {
          dcset.add_cube(c);
          continue;
        }
      }
      if (table[minterm / 64] >> (minterm % 64) & 1) onset.add_cube(c);
    }

    auto cover = sop::minimize(onset, dcset);
    // Keep only if strictly cheaper than the window it replaces (negated
    // literals cost an inverter each, so count them).
    if (cost_floor(cover) >= window_lits) return;
    std::vector<double> w(k);
    for (unsigned i = 0; i < k; ++i) w[i] = 0.05 + tog(boundary[i]);
    sop::Expr expr = sop::factor_weighted(cover, w);
    if (expr_cost(expr) >= window_lits) return;

    // Journal the mutation when re-scoring: the touched set scopes the
    // activity refresh (nests correctly inside a flow stage's epoch).
    bool journal = inc.has_value();
    if (journal) net.begin_undo();
    NodeId rebuilt = sop::build_expr(net, expr, boundary);
    if (rebuilt == n) {
      if (journal) net.rollback_undo();  // discard half-built helpers
      return;
    }
    // build_expr may return a boundary node itself (constant/wire case);
    // otherwise it is freshly constructed logic.
    net.substitute(n, rebuilt);
    net.sweep();
    if (journal) {
      try {
        inc->reanalyze(net.touched_nodes());
        ++res.rescored;
      } catch (const std::exception&) {
        // Estimator defect: the rewrite itself is already legal and kept;
        // later windows fall back to the (stale) caller vector.
        inc.reset();
        core::metrics::count("logicopt.resynth.rescore_dropped");
      }
      net.commit_undo();
    }
    ++res.nodes_rewritten;
  };

  // Rewrites create nodes the current BDDs don't cover, so run rounds to a
  // fixpoint, rebuilding the symbolic view between rounds.
  bool round_changed = true;
  int rounds = 0;
  while (round_changed && rounds++ < 4 &&
         res.nodes_rewritten < opt.max_rewrites) {
    bdd::NetlistBdds bdds;
    try {
      bdds = bdd::build_bdds(net, opt.bdd_limit);
    } catch (const bdd::NodeLimitExceeded&) {
      return finalize(net.num_gates());  // circuit too wide for exact DCs
    }
    const std::vector<std::uint64_t> simval = simulate_round(net, bdds);

    // Candidate list fixed per round; rewrites only add nodes.
    std::vector<NodeId> candidates;
    for (NodeId n = 0; n < net.size(); ++n) {
      if (net.is_dead(n)) continue;
      const Node& nd = net.node(n);
      if (is_source(nd.type) || nd.type == GateType::Dff) continue;
      candidates.push_back(n);
    }

    const int rewritten_before = res.nodes_rewritten;
    for (NodeId n : candidates) {
      if (res.nodes_rewritten >= opt.max_rewrites) {
        // Budget exhausted with windows still unexamined — never silent.
        res.rewrites_capped = true;
        break;
      }
      examine(n, bdds, simval);
    }
    round_changed = res.nodes_rewritten > rewritten_before;
  }
  if (res.nodes_rewritten >= opt.max_rewrites && round_changed)
    res.rewrites_capped = true;
  return finalize(net.num_gates());
}

}  // namespace lps::logicopt
