#include "logicopt/dontcare.hpp"

#include <algorithm>
#include <optional>

#include "bdd/bdd_netlist.hpp"
#include "core/metrics.hpp"
#include "core/parallel.hpp"
#include "sim/compiled.hpp"

namespace lps::logicopt {

namespace {

// Simulation patterns: kRandomWords words of fixed-seed splitmix64
// assignments; the first BDD counterexample widens the block to kWords, the
// extra words holding up to (kWords - kRandomWords) * 64 counterexamples
// (oldest overwritten first).  Any assignment is a valid pattern, so unused
// counterexample bits (all zero) filter exactly too.
constexpr std::size_t kRandomWords = 8;
constexpr std::size_t kWords = 16;
constexpr std::uint64_t kPatternSeed = 0x0DC0DE5EEDull;

bool is_const(const Node& nd) {
  return nd.type == GateType::Const0 || nd.type == GateType::Const1;
}

// A gate's function from its fanins' functions (`fi` looks one up), the
// same fold as bdd::build_bdds.
template <class FaninFn>
bdd::Ref gate_fn(bdd::Manager& m, const Node& nd, FaninFn fi) {
  switch (nd.type) {
    case GateType::Const0:
      return bdd::kFalse;
    case GateType::Const1:
      return bdd::kTrue;
    case GateType::Buf:
      return fi(nd.fanins[0]);
    case GateType::Not:
      return m.lnot(fi(nd.fanins[0]));
    case GateType::And:
    case GateType::Nand: {
      bdd::Ref r = bdd::kTrue;
      for (NodeId f : nd.fanins) r = m.land(r, fi(f));
      return nd.type == GateType::Nand ? m.lnot(r) : r;
    }
    case GateType::Or:
    case GateType::Nor: {
      bdd::Ref r = bdd::kFalse;
      for (NodeId f : nd.fanins) r = m.lor(r, fi(f));
      return nd.type == GateType::Nor ? m.lnot(r) : r;
    }
    case GateType::Xor:
    case GateType::Xnor: {
      bdd::Ref r = bdd::kFalse;
      for (NodeId f : nd.fanins) r = m.lxor(r, fi(f));
      return nd.type == GateType::Xnor ? m.lnot(r) : r;
    }
    case GateType::Mux:
      return m.ite(fi(nd.fanins[0]), fi(nd.fanins[2]), fi(nd.fanins[1]));
    default:
      throw std::logic_error("dontcare: sources have no gate function");
  }
}

struct Counters {
  double candidates = 0, sim_rejected = 0, bdd_checked = 0, cex_added = 0;
};

// One optimize_dontcare pass: the global BDDs, the compiled tape and the
// pattern store live as long as the pass; each sweep refreshes the
// topological order, the tape and the simulated values.
class FilterThenProve {
 public:
  FilterThenProve(Netlist& net, const std::vector<double>& toggles,
                  const DontCareOptions& opt, Counters& counters)
      : net_(net),
        toggles_(toggles),
        opt_(opt),
        counters_(counters),
        bdds_(bdd::build_bdds(net, opt.bdd_limit)),
        tape_(net) {
    pattern_.assign(bdds_.var_node.size() * kWords, 0);
    std::uint64_t k = 0;
    for (std::size_t v = 0; v < bdds_.var_node.size(); ++v)
      for (std::size_t w = 0; w < kRandomWords; ++w)
        pattern_[v * kWords + w] = core::shard_seed(kPatternSeed, k++);
  }

  /// Refresh the per-sweep state after construction or a rewrite.
  void begin_sweep() {
    const std::size_t n = net_.size();
    order_ = net_.topo_order();
    pos_.assign(n, 0);
    for (std::size_t i = 0; i < order_.size(); ++i) pos_[order_[i]] = i;
    mark_.resize(n, 0);
    is_root_.assign(n, 0);
    for (NodeId o : net_.outputs()) is_root_[o] = 1;
    for (NodeId d : net_.dffs())
      for (NodeId pin : net_.node(d).fanins) is_root_[pin] = 1;
    tape_.rebuild();
    resimulate();
  }

  const std::vector<NodeId>& order() const { return order_; }

  /// Filter, then prove: the replacement for n, or kNoNode.
  NodeId candidate(NodeId n) {
    ++counters_.candidates;
    collect_tfo(n);
    simulate_care(n);
    // Sim rejection: a care pattern on which n disagrees with the
    // replacement proves the replacement inadmissible.
    const std::size_t W = words_;
    const std::uint64_t* fv = &base_[n * W];
    bool const0 = true, const1 = true;
    for (std::size_t w = 0; w < W; ++w) {
      if (fv[w] & care_[w]) const0 = false;
      if (~fv[w] & care_[w]) const1 = false;
    }
    const double min_gain = opt_.power_aware ? 1e-12 : -1e30;
    targets_.clear();
    for (NodeId g = 0; g < net_.size(); ++g) {
      if (g == n || net_.is_dead(g) || in_tfo(g) || is_const(net_.node(g)))
        continue;
      if (!(gain(n, g) > min_gain)) continue;  // could never be picked
      const std::uint64_t* fg = &base_[g * W];
      std::uint64_t diff = 0;
      for (std::size_t w = 0; w < W && !diff; ++w)
        diff = (fv[w] ^ fg[w]) & care_[w];
      if (!diff) targets_.push_back(g);
    }
    if (!const0 && !const1 && targets_.empty()) {
      ++counters_.sim_rejected;
      return kNoNode;
    }
    ++counters_.bdd_checked;
    NodeId r = prove(n, const0, const1, min_gain);
    if (r == kNoNode && refine_) resimulate();
    return r;
  }

  /// Apply n -> r, sweep, and patch the global functions in place.
  void rewrite(NodeId n, NodeId r) {
    std::vector<NodeId> users = net_.node(n).fanouts;
    net_.substitute(n, r);
    net_.sweep();
    auto& m = bdds_.mgr;
    auto& fn = bdds_.node_fn;
    fn.resize(net_.size(), bdd::kFalse);
    if (net_.node(r).type == GateType::Const1) fn[r] = bdd::kTrue;
    // build_bdds rooted every live gate's function once; release the ones
    // the sweep removed (dead entries hold kFalse, whose deref is a no-op).
    for (NodeId id = 0; id < net_.size(); ++id)
      if (net_.is_dead(id)) {
        m.deref(fn[id]);
        fn[id] = bdd::kFalse;
      }
    // Only the transitive fanout of n's former users (now r's) can change
    // function; refresh it in topological order.
    std::vector<bool> dirty(net_.size(), false);
    std::vector<NodeId> stack;
    for (NodeId u : users)
      if (!net_.is_dead(u) && net_.node(u).type != GateType::Dff &&
          !dirty[u]) {
        dirty[u] = true;
        stack.push_back(u);
      }
    while (!stack.empty()) {
      NodeId x = stack.back();
      stack.pop_back();
      for (NodeId fo : net_.node(x).fanouts)
        if (net_.node(fo).type != GateType::Dff && !dirty[fo]) {
          dirty[fo] = true;
          stack.push_back(fo);
        }
    }
    for (NodeId id : net_.topo_order()) {
      if (!dirty[id]) continue;
      bdd::Ref f = m.ref(
          gate_fn(m, net_.node(id), [&fn](NodeId x) { return fn[x]; }));
      m.deref(fn[id]);
      fn[id] = f;
    }
  }

 private:
  double tog(NodeId id) const {
    // The netlist grows (fresh constant nodes) while `toggles` stays at its
    // original size; nodes added during optimization carry zero activity.
    return id < toggles_.size() ? toggles_[id] : 0.0;
  }
  // Power gain of merging n into g: n's activity disappears; g gains one
  // fanout's worth of load at g's activity.  Without power_aware any
  // admissible merge counts the same.
  double gain(NodeId n, NodeId g) const {
    return opt_.power_aware ? tog(n) - 0.5 * tog(g) : 1.0;
  }

  // Transitive fanout of n (combinational; Dff boundaries cut): marks it
  // for in_tfo() and lists it minus n, in topological order, in cone_.
  void collect_tfo(NodeId n) {
    ++stamp_;
    mark_[n] = stamp_;
    cone_.clear();
    stack_.assign(1, n);
    while (!stack_.empty()) {
      NodeId x = stack_.back();
      stack_.pop_back();
      for (NodeId fo : net_.node(x).fanouts) {
        if (net_.node(fo).type == GateType::Dff || mark_[fo] == stamp_)
          continue;
        mark_[fo] = stamp_;
        cone_.push_back(fo);
        stack_.push_back(fo);
      }
    }
    std::sort(cone_.begin(), cone_.end(),
              [this](NodeId a, NodeId b) { return pos_[a] < pos_[b]; });
  }
  bool in_tfo(NodeId id) const { return mark_[id] == stamp_; }

  // Simulate every pattern on the current netlist (PIs and Dff outputs are
  // free variables, as in the BDDs).
  void resimulate() {
    const std::size_t W = words_;
    base_.assign(net_.size() * W, 0);
    for (std::size_t v = 0; v < bdds_.var_node.size(); ++v)
      std::copy_n(&pattern_[v * kWords], W, &base_[bdds_.var_node[v] * W]);
    tape_.exec_all(base_.data(), W);
    alt_ = base_;
    refine_ = false;
  }

  // care_[w]: patterns on which flipping n changes some root (PO, Dff D or
  // Dff enable) in its transitive fanout — exactly the BDD care set's
  // members among the simulated patterns.
  void simulate_care(NodeId n) {
    const std::size_t W = words_;
    std::uint64_t* a = alt_.data();
    const std::uint64_t* b = base_.data();
    for (std::size_t w = 0; w < W; ++w) a[n * W + w] = ~b[n * W + w];
    tape_.exec_gates(a, W, cone_);
    care_.assign(W, 0);
    auto account = [&](NodeId x) {
      if (is_root_[x])
        for (std::size_t w = 0; w < W; ++w)
          care_[w] |= a[x * W + w] ^ b[x * W + w];
      std::copy_n(b + x * W, W, a + x * W);
    };
    account(n);
    for (NodeId x : cone_) account(x);
  }

  // The symbolic check on the simulation survivors: exactly the BDD
  // decisions of the unfiltered pass, in the same order.  Every survivor
  // the BDD rejects yields a counterexample pattern.
  NodeId prove(NodeId n, bool const0, bool const1, double best_gain) {
    auto& m = bdds_.mgr;
    // Safe point: between candidates only the rooted global functions
    // are live, so shed the previous candidate's scaffolding once it gets
    // heavy instead of growing to bdd_limit.
    if (m.live_nodes() >= opt_.bdd_limit / 2) m.gc();
    if (const0 && admissible(n, bdd::kFalse)) return net_.add_const(false);
    if (const1 && admissible(n, bdd::kTrue)) return net_.add_const(true);
    // Merge: the highest-gain admissible target, first in id order on
    // ties; targets that cannot beat the current best skip the proof.
    NodeId replacement = kNoNode;
    for (NodeId g : targets_) {
      double gn = gain(n, g);
      if (!(gn > best_gain) || !admissible(n, bdds_.node_fn[g])) continue;
      best_gain = gn;
      replacement = g;
    }
    return replacement;
  }

  // Replacing n by a signal of function f is admissible iff f agrees with
  // n on n's care set — equivalently, iff substituting f for n leaves
  // every root in n's fanout cone with its function.  The substitution
  // propagates only through gates whose function it changes and stops at
  // the first changed root, whose difference then holds a counterexample.
  bool admissible(NodeId n, bdd::Ref f) {
    auto& m = bdds_.mgr;
    const auto& fn = bdds_.node_fn;
    sub_.resize(net_.size());
    changed_.resize(net_.size(), 0);
    ++epoch_;
    auto now = [&](NodeId x) {
      return changed_[x] == epoch_ ? sub_[x] : fn[x];
    };
    auto change = [&](NodeId x, bdd::Ref g) {
      if (g == fn[x]) return true;
      if (is_root_[x]) {
        add_counterexample(m.lxor(g, fn[x]));
        return false;
      }
      sub_[x] = g;
      changed_[x] = epoch_;
      return true;
    };
    if (!change(n, f)) return false;
    for (NodeId x : cone_) {
      const Node& nd = net_.node(x);
      if (std::none_of(nd.fanins.begin(), nd.fanins.end(),
                       [&](NodeId i) { return changed_[i] == epoch_; }))
        continue;
      if (!change(x, gate_fn(m, nd, now))) return false;
    }
    return true;
  }

  // Store a satisfying assignment of `f` (a care point where the rejected
  // replacement differs from n) as a pattern; resimulated once the
  // candidate is done.
  void add_counterexample(bdd::Ref f) {
    auto a = bdds_.mgr.any_sat(f);
    if (words_ < kWords) words_ = kWords;
    constexpr std::size_t kSlots = (kWords - kRandomWords) * 64;
    const std::size_t slot = cex_next_++ % kSlots;
    const std::size_t w = kRandomWords + slot / 64;
    const std::uint64_t bit = std::uint64_t{1} << (slot % 64);
    for (std::size_t v = 0; v < bdds_.var_node.size(); ++v) {
      std::uint64_t& word = pattern_[v * kWords + w];
      word = (*a)[v] ? (word | bit) : (word & ~bit);
    }
    ++counters_.cex_added;
    refine_ = true;
  }

  Netlist& net_;
  const std::vector<double>& toggles_;
  const DontCareOptions& opt_;
  Counters& counters_;
  bdd::NetlistBdds bdds_;
  sim::CompiledSim tape_;

  std::vector<std::uint64_t> pattern_;  // per BDD variable, kWords each
  std::size_t words_ = kRandomWords;    // simulated words per node
  std::size_t cex_next_ = 0;
  bool refine_ = false;  // counterexamples wait for resimulation

  std::vector<NodeId> order_;
  std::vector<std::size_t> pos_;
  std::vector<char> is_root_;
  std::vector<std::uint64_t> base_, alt_, care_;

  std::vector<std::uint32_t> mark_;
  std::uint32_t stamp_ = 0;
  std::vector<NodeId> cone_, stack_, targets_;
  std::vector<bdd::Ref> sub_;
  std::vector<std::uint32_t> changed_;
  std::uint32_t epoch_ = 0;
};

}  // namespace

DontCareResult optimize_dontcare(Netlist& net,
                                 const std::vector<double>& toggles,
                                 const DontCareOptions& opt) {
  DontCareResult res;
  res.gates_before = net.num_gates();
  Counters counters;
  bool changed = true;
  int rewrites = 0;
  try {
    std::optional<FilterThenProve> pass;
    while (changed && rewrites < opt.max_rewrites) {
      changed = false;
      if (!pass) pass.emplace(net, toggles, opt, counters);
      pass->begin_sweep();
      for (NodeId n : pass->order()) {
        const Node& nd = net.node(n);
        if (is_source(nd.type) || nd.type == GateType::Dff) continue;
        NodeId replacement = pass->candidate(n);
        if (replacement == kNoNode) continue;
        // Counted first: the netlist edit lands even if re-deriving the
        // functions afterwards outgrows bdd_limit.
        if (is_const(net.node(replacement)))
          ++res.const_replacements;
        else
          ++res.merges;
        ++rewrites;
        changed = true;
        pass->rewrite(n, replacement);
        break;  // restart from the top of the new topological order
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
  core::metrics::count("logicopt.dontcare.candidates", counters.candidates);
  core::metrics::count("logicopt.dontcare.sim_rejected",
                       counters.sim_rejected);
  core::metrics::count("logicopt.dontcare.bdd_checked", counters.bdd_checked);
  core::metrics::count("logicopt.dontcare.cex_added", counters.cex_added);
  res.gates_after = net.num_gates();
  return res;
}

}  // namespace lps::logicopt
