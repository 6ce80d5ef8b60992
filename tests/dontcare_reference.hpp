// dontcare_reference.hpp — the BDD-only don't-care pass, kept as the
// reference model for logicopt::optimize_dontcare.
//
// This is the loop optimize_dontcare ran before it filtered candidates by
// simulation.  Every sweep rebuilds all global BDDs; every candidate
// rebuilds its transitive fanout over a fresh variable y, derives the care
// set from the roots' y-cofactors, and runs one BDD `land` per live merge
// target; every accepted rewrite restarts the scan.  Its decisions rest
// only on canonical BDD equality, so the production pass must make the
// same rewrites (same structural_hash, same counts) wherever neither run
// outgrows bdd_limit.  Two edits to the old loop: it writes no metrics, so
// it can run beside the production pass without polluting the
// logicopt.dontcare.* counters, and it shares the production pass's
// enable-pin fix (a Dff enable is a root, like the D input).
// The header also holds E4's redundancy-seeded circuits.  Shared by the
// test suite (DontCare.MatchesReferenceRewrites) and bench_dontcare (E4).

#pragma once

#include <random>
#include <vector>

#include "bdd/bdd_netlist.hpp"
#include "logicopt/dontcare.hpp"
#include "netlist/benchmarks.hpp"

namespace lps::dontcare_reference {

// Inject reconvergent redundancy into a circuit: for a random sample of
// 2-input gates y, reroute y's users to OR(y, AND(y, x)) with x a fanin
// of y — absorption-redundant logic that ODC analysis should collapse.
inline Netlist with_redundancy(const Netlist& src, std::uint32_t seed) {
  Netlist n = src.clone();
  std::mt19937 rng(seed);
  auto order = n.topo_order();
  int added = 0;
  for (NodeId id : order) {
    if (added >= 8) break;
    const Node& nd = n.node(id);
    if (is_source(nd.type) || nd.type == GateType::Dff) continue;
    if (nd.fanins.size() != 2 || (rng() % 3)) continue;
    NodeId a = nd.fanins[0];
    NodeId red = n.add_and(id, a);
    NodeId replacement = n.add_or(id, red);
    std::vector<NodeId> users = n.node(id).fanouts;
    for (NodeId u : users) {
      if (u == red || u == replacement) continue;
      auto& fi = n.node(u).fanins;
      for (std::size_t k = 0; k < fi.size(); ++k)
        if (fi[k] == id) n.replace_fanin(u, k, replacement);
    }
    ++added;
  }
  return n;
}

/// E4's redundancy-seeded circuits.
inline std::vector<bench::NamedNetlist> redundancy_suite() {
  std::vector<bench::NamedNetlist> s;
  s.push_back({"c17+red", with_redundancy(bench::c17(), 3)});
  s.push_back({"rca8+red", with_redundancy(bench::ripple_carry_adder(8), 5)});
  s.push_back({"cmp8+red", with_redundancy(bench::comparator_gt(8), 7)});
  s.push_back({"alu4+red", with_redundancy(bench::alu(4), 9)});
  return s;
}

// Transitive fanout mask of n (combinational; Dff boundaries cut).
inline std::vector<bool> tfo_of(const Netlist& net, NodeId n) {
  std::vector<bool> mask(net.size(), false);
  std::vector<NodeId> stack{n};
  mask[n] = true;
  while (!stack.empty()) {
    NodeId x = stack.back();
    stack.pop_back();
    for (NodeId fo : net.node(x).fanouts) {
      if (net.node(fo).type == GateType::Dff) continue;
      if (!mask[fo]) {
        mask[fo] = true;
        stack.push_back(fo);
      }
    }
  }
  return mask;
}

// Rebuild functions of n's transitive fanout with node n replaced by var y;
// returns the function of every node under that substitution.
inline std::vector<bdd::Ref> with_fresh_var(bdd::NetlistBdds& b,
                                            const Netlist& net, NodeId n,
                                            unsigned y,
                                            const std::vector<bool>& tfo) {
  auto& m = b.mgr;
  std::vector<bdd::Ref> fn = b.node_fn;
  fn[n] = m.var(y);
  for (NodeId id : net.topo_order()) {
    if (id == n || !tfo[id]) continue;
    const Node& nd = net.node(id);
    if (is_source(nd.type) || nd.type == GateType::Dff) continue;
    switch (nd.type) {
      case GateType::Buf:
        fn[id] = fn[nd.fanins[0]];
        break;
      case GateType::Not:
        fn[id] = m.lnot(fn[nd.fanins[0]]);
        break;
      case GateType::And:
      case GateType::Nand: {
        bdd::Ref r = bdd::kTrue;
        for (NodeId f : nd.fanins) r = m.land(r, fn[f]);
        fn[id] = nd.type == GateType::Nand ? m.lnot(r) : r;
        break;
      }
      case GateType::Or:
      case GateType::Nor: {
        bdd::Ref r = bdd::kFalse;
        for (NodeId f : nd.fanins) r = m.lor(r, fn[f]);
        fn[id] = nd.type == GateType::Nor ? m.lnot(r) : r;
        break;
      }
      case GateType::Xor:
      case GateType::Xnor: {
        bdd::Ref r = bdd::kFalse;
        for (NodeId f : nd.fanins) r = m.lxor(r, fn[f]);
        fn[id] = nd.type == GateType::Xnor ? m.lnot(r) : r;
        break;
      }
      case GateType::Mux:
        fn[id] = m.ite(fn[nd.fanins[0]], fn[nd.fanins[2]], fn[nd.fanins[1]]);
        break;
      default:
        break;
    }
  }
  return fn;
}

inline logicopt::DontCareResult optimize_dontcare(
    Netlist& net, const std::vector<double>& toggles,
    const logicopt::DontCareOptions& opt = {}) {
  logicopt::DontCareResult res;
  res.gates_before = net.num_gates();
  // The netlist grows (fresh constant nodes) while `toggles` stays at its
  // original size; nodes added during optimization carry zero activity.
  auto tog = [&toggles](NodeId id) {
    return id < toggles.size() ? toggles[id] : 0.0;
  };

  bool changed = true;
  int rewrites = 0;
  try {
  while (changed && rewrites < opt.max_rewrites) {
    changed = false;
    auto bdds = bdd::build_bdds(net, opt.bdd_limit);
    auto& m = bdds.mgr;
    unsigned y = m.add_var();

    auto order = net.topo_order();
    for (NodeId n : order) {
      if (net.is_dead(n)) continue;
      const Node& nd = net.node(n);
      if (is_source(nd.type) || nd.type == GateType::Dff) continue;

      // Safe point: between candidates only the rooted global functions
      // are live, so shed the previous candidate's observability
      // scaffolding once it gets heavy instead of growing to bdd_limit.
      if (m.live_nodes() >= opt.bdd_limit / 2) m.gc();

      auto tfo = tfo_of(net, n);
      auto fn_y = with_fresh_var(bdds, net, n, y, tfo);

      // Care set: some root (PO, Dff D or Dff enable) distinguishes y=0
      // from y=1.
      bdd::Ref odc = bdd::kTrue;
      auto account_root = [&](NodeId root) {
        bdd::Ref f = fn_y[root];
        bdd::Ref f0 = m.cofactor(f, y, false);
        bdd::Ref f1 = m.cofactor(f, y, true);
        odc = m.land(odc, m.lxnor(f0, f1));
      };
      for (NodeId o : net.outputs())
        if (tfo[o]) account_root(o);
      for (NodeId d : net.dffs())
        for (NodeId pin : net.node(d).fanins)
          if (tfo[pin]) account_root(pin);

      bdd::Ref care = m.lnot(odc);
      bdd::Ref f_n = bdds.node_fn[n];
      bdd::Ref f_care = m.land(f_n, care);

      // Constant replacement.
      NodeId replacement = kNoNode;
      if (f_care == bdd::kFalse) {
        replacement = net.add_const(false);
      } else if (m.land(m.lnot(f_n), care) == bdd::kFalse) {
        replacement = net.add_const(true);
      } else {
        // Merge with an existing signal outside the TFO.
        double best_gain = opt.power_aware ? 1e-12 : -1e30;
        for (NodeId g = 0; g < net.size(); ++g) {
          if (g == n || net.is_dead(g) || tfo[g]) continue;
          if (net.node(g).type == GateType::Const0 ||
              net.node(g).type == GateType::Const1)
            continue;
          if (m.land(bdds.node_fn[g], care) != f_care) continue;
          // Power gain: node n's activity disappears; g gains one fanout's
          // worth of load at g's activity.
          double gain = tog(n) - 0.5 * tog(g);
          if (!opt.power_aware) gain = 1.0;  // any admissible merge
          if (gain > best_gain) {
            best_gain = gain;
            replacement = g;
          }
        }
      }

      if (replacement != kNoNode) {
        net.substitute(n, replacement);
        net.sweep();
        if (net.node(replacement).type == GateType::Const0 ||
            net.node(replacement).type == GateType::Const1)
          ++res.const_replacements;
        else
          ++res.merges;
        ++rewrites;
        changed = true;
        break;  // netlist changed: rebuild BDDs
      }
    }
  }
  } catch (const bdd::NodeLimitExceeded&) {
    // Symbolic analysis outgrew the budget: keep whatever rewrites landed
    // before the blowup (each was applied atomically, so the netlist is
    // consistent and equivalent).
    res.bdd_limited = true;
  }
  if (!res.bdd_limited && changed && rewrites >= opt.max_rewrites)
    res.capped = true;
  res.gates_after = net.num_gates();
  return res;
}

}  // namespace lps::dontcare_reference
