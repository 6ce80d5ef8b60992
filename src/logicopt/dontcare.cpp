#include "logicopt/dontcare.hpp"

#include <algorithm>

#include "bdd/bdd_netlist.hpp"
#include "core/metrics.hpp"

namespace lps::logicopt {

namespace {

// Transitive fanout mask of n (combinational; Dff boundaries cut).
std::vector<bool> tfo_of(const Netlist& net, NodeId n) {
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
std::vector<bdd::Ref> with_fresh_var(bdd::NetlistBdds& b, const Netlist& net,
                                     NodeId n, unsigned y,
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

}  // namespace

DontCareResult optimize_dontcare(Netlist& net,
                                 const std::vector<double>& toggles,
                                 const DontCareOptions& opt) {
  DontCareResult res;
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

      // Care set: some root (PO or Dff D) distinguishes y=0 from y=1.
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
        if (tfo[net.node(d).fanins[0]]) account_root(net.node(d).fanins[0]);

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
    core::metrics::count("logicopt.dontcare.bdd_limited");
  }
  if (!res.bdd_limited && changed && rewrites >= opt.max_rewrites) {
    res.capped = true;
    core::metrics::count("logicopt.dontcare.capped");
  }
  res.gates_after = net.num_gates();
  return res;
}

}  // namespace lps::logicopt
