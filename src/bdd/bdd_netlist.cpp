#include "bdd/bdd_netlist.hpp"

#include <algorithm>
#include <stdexcept>

namespace lps::bdd {

namespace {

// Variable order heuristic: depth-first from the outputs, fanin-first,
// collecting symbolic sources (PIs and Dff outputs) in first-visit order.
// For arithmetic circuits this interleaves the operand buses (a0 b0 a1 b1
// ...), which keeps adder/comparator BDDs linear where the blocked
// positional order is exponential.
std::vector<NodeId> source_order_dfs(const Netlist& net) {
  std::vector<NodeId> order;
  std::vector<bool> seen(net.size(), false);
  auto rec = [&](auto&& self, NodeId n) -> void {
    if (seen[n]) return;
    seen[n] = true;
    const Node& nd = net.node(n);
    if (nd.type == GateType::Input || nd.type == GateType::Dff) {
      order.push_back(n);
      return;
    }
    for (NodeId f : nd.fanins) self(self, f);
  };
  for (NodeId o : net.outputs()) rec(rec, o);
  for (NodeId d : net.dffs())
    for (NodeId f : net.node(d).fanins) rec(rec, f);
  // Any source not reachable from an output still needs a variable.
  for (NodeId pi : net.inputs())
    if (!seen[pi]) {
      seen[pi] = true;
      order.push_back(pi);
    }
  for (NodeId d : net.dffs())
    if (!seen[d]) {
      seen[d] = true;
      order.push_back(d);
    }
  return order;
}

/// Build per-node BDDs for `net` inside an existing manager, with the
/// symbolic sources (PIs then Dffs, positionally) mapped to `source_fn`.
std::vector<Ref> build_into(Manager& m, const Netlist& net,
                            std::span<const Ref> source_fn) {
  auto dffs = net.dffs();
  if (source_fn.size() != net.inputs().size() + dffs.size())
    throw std::invalid_argument("build_into: source function count mismatch");
  std::vector<Ref> fn(net.size(), kFalse);
  std::size_t k = 0;
  for (NodeId pi : net.inputs()) fn[pi] = m.ref(source_fn[k++]);
  for (NodeId d : dffs) fn[d] = m.ref(source_fn[k++]);

  // Every per-node function is ref()'d as soon as it exists: under auto-GC
  // a collection may run at any later operation entry, and only rooted (or
  // argument) refs survive it.  Gate evaluation itself is safe because each
  // intermediate is immediately the argument of the next public call.
  for (NodeId id : net.topo_order()) {
    const Node& nd = net.node(id);
    switch (nd.type) {
      case GateType::Input:
      case GateType::Dff:
        break;  // already assigned
      case GateType::Const0:
        fn[id] = kFalse;
        break;
      case GateType::Const1:
        fn[id] = kTrue;
        break;
      case GateType::Buf:
        fn[id] = fn[nd.fanins[0]];
        break;
      case GateType::Not:
        fn[id] = m.lnot(fn[nd.fanins[0]]);
        break;
      case GateType::And:
      case GateType::Nand: {
        Ref r = kTrue;
        for (NodeId f : nd.fanins) r = m.land(r, fn[f]);
        fn[id] = nd.type == GateType::Nand ? m.lnot(r) : r;
        break;
      }
      case GateType::Or:
      case GateType::Nor: {
        Ref r = kFalse;
        for (NodeId f : nd.fanins) r = m.lor(r, fn[f]);
        fn[id] = nd.type == GateType::Nor ? m.lnot(r) : r;
        break;
      }
      case GateType::Xor:
      case GateType::Xnor: {
        Ref r = kFalse;
        for (NodeId f : nd.fanins) r = m.lxor(r, fn[f]);
        fn[id] = nd.type == GateType::Xnor ? m.lnot(r) : r;
        break;
      }
      case GateType::Mux:
        fn[id] = m.ite(fn[nd.fanins[0]], fn[nd.fanins[2]], fn[nd.fanins[1]]);
        break;
    }
    if (nd.type != GateType::Input && nd.type != GateType::Dff)
      m.ref(fn[id]);
  }
  return fn;
}

}  // namespace

NetlistBdds build_bdds(const Netlist& net, std::size_t node_limit,
                       std::size_t reserve_hint) {
  NetlistBdds out;
  auto dffs = net.dffs();
  // Collect construction garbage while the build runs (the per-node
  // functions are rooted as they are produced, so only dead ITE scaffolding
  // is swept).
  Config cfg = default_config();
  cfg.node_limit = node_limit;
  cfg.auto_gc = true;
  out.mgr =
      Manager(static_cast<unsigned>(net.inputs().size() + dffs.size()), cfg);
  // Capacity hint: global BDDs for gate networks typically land within a
  // small multiple of the gate count; pre-sizing avoids rehash churn.
  if (reserve_hint == 0) reserve_hint = 16 * net.num_gates();
  out.mgr.reserve(std::min<std::size_t>(node_limit, reserve_hint));
  // Assign variable indices in DFS order; feed build_into positionally.
  auto dfs = source_order_dfs(net);
  unsigned v = 0;
  out.var_node.resize(dfs.size());
  for (NodeId s : dfs) {
    out.var_of[s] = v;
    out.var_node[v] = s;
    ++v;
  }
  // Sources are rooted as they are made, like every gate function: auto-GC
  // may fire at any later operation entry, and an unrooted projection node
  // swept there would leave its fn[] entry pointing at a freed slot.
  std::vector<Ref> sources;
  auto source = [&out, &sources](NodeId s) {
    sources.push_back(out.mgr.var(out.var_of[s]));
    out.mgr.ref(sources.back());
  };
  for (NodeId pi : net.inputs()) source(pi);
  for (NodeId d : dffs) source(d);
  out.node_fn = build_into(out.mgr, net, sources);
  // Hand the manager back with auto-GC off: callers (don't-care extraction,
  // density estimation) hold unrooted temporaries across operations and use
  // explicit gc() at their own safe points instead.
  out.mgr.set_auto_gc(false);
  return out;
}

bool equivalent_bdd(const Netlist& a, const Netlist& b,
                    std::size_t node_limit) {
  if (a.inputs().size() != b.inputs().size()) return false;
  if (a.outputs().size() != b.outputs().size()) return false;
  auto da = a.dffs(), db = b.dffs();
  if (da.size() != db.size()) return false;

  // Build both networks over one shared variable space so Ref equality is
  // canonical function equality.  Variables follow circuit a's DFS order to
  // keep arithmetic-style functions compact.
  unsigned nv = static_cast<unsigned>(a.inputs().size() + da.size());
  Manager m(nv, node_limit);
  auto dfs = source_order_dfs(a);
  std::unordered_map<NodeId, unsigned> var_of;
  unsigned v = 0;
  for (NodeId s : dfs) var_of[s] = v++;
  std::vector<Ref> sources;
  for (NodeId pi : a.inputs()) sources.push_back(m.var(var_of.at(pi)));
  for (NodeId d : da) sources.push_back(m.var(var_of.at(d)));
  auto fa = build_into(m, a, sources);
  auto fb = build_into(m, b, sources);

  for (std::size_t i = 0; i < a.outputs().size(); ++i)
    if (fa[a.outputs()[i]] != fb[b.outputs()[i]]) return false;
  // Next-state functions, honouring optional enable pins: ns = EN ? D : Q.
  auto ns_of = [&m](const Netlist& net, NodeId d, const std::vector<Ref>& fn,
                    Ref q) {
    Ref next = fn[net.node(d).fanins[0]];
    if (net.node(d).fanins.size() == 2)
      next = m.ite(fn[net.node(d).fanins[1]], next, q);
    return next;
  };
  for (std::size_t i = 0; i < da.size(); ++i) {
    Ref q = m.var(var_of.at(da[i]));
    if (ns_of(a, da[i], fa, q) != ns_of(b, db[i], fb, q)) return false;
  }
  return true;
}

NodeId synthesize_bdd(Netlist& net, Manager& mgr, Ref f,
                      const std::vector<NodeId>& var_to_node) {
  std::unordered_map<Ref, NodeId> memo;
  auto rec = [&](auto&& self, Ref r) -> NodeId {
    if (r == kFalse) return net.add_const(false);
    if (r == kTrue) return net.add_const(true);
    if (auto it = memo.find(r); it != memo.end()) return it->second;
    NodeId out;
    const auto& n = mgr.node(r);
    if (is_complemented(r)) {
      // Complement edge: one shared inverter per node polarity (the memo
      // keys on the full tagged ref, so f and !f cost one Not, not a
      // duplicated cone).  The negated literal node is x itself.
      if (n.lo == kTrue && n.hi == kFalse)
        out = var_to_node.at(n.var);
      else
        out = net.add_not(self(self, regular(r)));
    } else {
      NodeId sel = var_to_node.at(n.var);
      // Specialize the common single-literal shapes to plain gates.
      if (n.lo == kFalse && n.hi == kTrue) {
        out = sel;
      } else if (n.lo == kTrue && n.hi == kFalse) {
        out = net.add_not(sel);
      } else if (n.lo == kFalse) {
        out = net.add_and(sel, self(self, n.hi));
      } else if (n.hi == kFalse) {
        out = net.add_and(net.add_not(sel), self(self, n.lo));
      } else if (n.lo == kTrue) {
        out = net.add_or(net.add_not(sel), self(self, n.hi));
      } else if (n.hi == kTrue) {
        out = net.add_or(sel, self(self, n.lo));
      } else {
        out = net.add_mux(sel, self(self, n.lo), self(self, n.hi));
      }
    }
    memo.emplace(r, out);
    return out;
  };
  return rec(rec, f);
}

}  // namespace lps::bdd
