#include "logicopt/bdd_synth.hpp"

#include <algorithm>
#include <optional>
#include <unordered_map>
#include <vector>

#include "bdd/bdd_netlist.hpp"
#include "core/env.hpp"
#include "core/metrics.hpp"
#include "power/incremental.hpp"
#include "sim/logicsim.hpp"

namespace lps::logicopt {

std::vector<NodeId> bdd_cone_roots(const Netlist& net) {
  std::vector<NodeId> roots;
  std::vector<bool> seen(net.size(), false);
  auto push = [&](NodeId n) {
    if (seen[n]) return;
    seen[n] = true;
    const Node& nd = net.node(n);
    if (nd.dead || is_source(nd.type) || nd.type == GateType::Dff) return;
    roots.push_back(n);
  };
  for (NodeId o : net.outputs()) push(o);
  for (NodeId d : net.dffs())
    for (NodeId f : net.node(d).fanins) push(f);
  return roots;
}

// Fanin-first DFS from the root.  Sources land in first-visit order — the
// same interleaving heuristic bdd_netlist.cpp uses globally, which keeps
// arithmetic cones linear — and gates land in postorder, which is a valid
// evaluation order for the cone.  Constants are neither: they lower to the
// terminal directly.
BddCone extract_bdd_cone(const Netlist& net, NodeId root) {
  BddCone c;
  c.root = root;
  std::vector<bool> seen(net.size(), false);
  auto rec = [&](auto&& self, NodeId n) -> void {
    if (seen[n]) return;
    seen[n] = true;
    const Node& nd = net.node(n);
    if (nd.type == GateType::Input || nd.type == GateType::Dff) {
      c.sources.push_back(n);
      return;
    }
    for (NodeId f : nd.fanins) self(self, f);
    if (!is_source(nd.type)) c.gates.push_back(n);
  };
  rec(rec, root);
  return c;
}

// Every per-gate function is ref()'d as soon as it exists (the auto-GC
// contract of bdd.hpp); once the root is known the scaffolding is deref'd
// and collected, so sifting and the peak-live watermark see only the root
// cone.
bdd::Ref build_bdd_cone(bdd::Manager& m, const Netlist& net,
                        const BddCone& c) {
  std::unordered_map<NodeId, bdd::Ref> fn;
  fn.reserve(c.gates.size() + c.sources.size());
  for (unsigned v = 0; v < c.sources.size(); ++v)
    fn.emplace(c.sources[v], m.ref(m.var(v)));
  auto in = [&](NodeId g) -> bdd::Ref {
    const Node& nd = net.node(g);
    if (nd.type == GateType::Const0) return bdd::kFalse;
    if (nd.type == GateType::Const1) return bdd::kTrue;
    return fn.at(g);
  };
  for (NodeId id : c.gates) {
    const Node& nd = net.node(id);
    bdd::Ref r = bdd::kFalse;
    switch (nd.type) {
      case GateType::Buf:
        r = in(nd.fanins[0]);
        break;
      case GateType::Not:
        r = m.lnot(in(nd.fanins[0]));
        break;
      case GateType::And:
      case GateType::Nand: {
        r = bdd::kTrue;
        for (NodeId f : nd.fanins) r = m.land(r, in(f));
        if (nd.type == GateType::Nand) r = m.lnot(r);
        break;
      }
      case GateType::Or:
      case GateType::Nor: {
        for (NodeId f : nd.fanins) r = m.lor(r, in(f));
        if (nd.type == GateType::Nor) r = m.lnot(r);
        break;
      }
      case GateType::Xor:
      case GateType::Xnor: {
        for (NodeId f : nd.fanins) r = m.lxor(r, in(f));
        if (nd.type == GateType::Xnor) r = m.lnot(r);
        break;
      }
      case GateType::Mux:
        r = m.ite(in(nd.fanins[0]), in(nd.fanins[2]), in(nd.fanins[1]));
        break;
      default:
        break;  // sources and Dffs never appear in c.gates
    }
    fn[id] = m.ref(r);
  }
  bdd::Ref root_fn = fn.at(c.root);
  for (const auto& [n, r] : fn)
    if (n != c.root) m.deref(r);
  m.gc();
  return root_fn;
}

BddSynthResult synthesize_bdd_cones(Netlist& net, const BddSynthOptions& opt) {
  core::metrics::ScopedTimer timer("logicopt.bdd_synth", /*trace=*/true);
  BddSynthResult res;
  res.gates_before = net.num_gates();
  const unsigned cap =
      opt.max_inputs != 0
          ? opt.max_inputs
          : static_cast<unsigned>(
                core::env_long_or("LPS_BDD_SYNTH_MAX_INPUTS", 2, 30, 18));
  const bool do_sift = opt.sift < 0
                           ? core::env_bool_or("LPS_BDD_SYNTH_SIFT", true)
                           : opt.sift != 0;

  // Private deterministic oracle: ZeroDelay statistics are bit-identical
  // across sim engines, lane widths and thread counts, so the kept-cone
  // sequence depends only on (netlist, options).
  power::AnalysisOptions ao;
  ao.mode = power::ActivityMode::ZeroDelay;
  ao.n_vectors = opt.sim_vectors;
  ao.seed = opt.seed;
  power::IncrementalAnalyzer inc(net, ao);
  res.power_before_w = inc.analysis().report.breakdown.total_w();
  double cur_w = res.power_before_w;

  // One reference trace serves the whole pass: a cone is kept only when
  // the circuit's trace still equals it.  Taken before the first candidate.
  std::optional<sim::SimTrace> ref;

  for (NodeId root : bdd_cone_roots(net)) {
    if (net.is_dead(root)) continue;  // swept behind an earlier kept cone
    ++res.cones_examined;
    core::metrics::count("logicopt.bdd_synth.cones");
    BddCone c = extract_bdd_cone(net, root);
    if (c.sources.size() > cap) {
      ++res.cones_capped;
      core::metrics::count("logicopt.bdd_synth.capped");
      continue;
    }

    bdd::Config cfg = bdd::default_config();
    cfg.node_limit = opt.node_limit;
    cfg.auto_gc = true;
    bdd::Manager m(static_cast<unsigned>(c.sources.size()), cfg);
    bdd::Ref f;
    try {
      f = build_bdd_cone(m, net, c);
      if (do_sift && !c.sources.empty()) {
        // Weight each variable by its measured switching activity (from
        // the *current* circuit — the oracle re-scores after every kept
        // cone, so there is no stale-activity bias).  The floor keeps
        // plain node count as the tiebreaker for toggle-free inputs.
        const auto& tog = inc.analysis().toggles_per_cycle;
        std::vector<double> w(c.sources.size(), 1.0);
        for (unsigned v = 0; v < c.sources.size(); ++v)
          w[v] = 1e-3 +
                 (c.sources[v] < tog.size() ? tog[c.sources[v]] : 0.0);
        bdd::Manager::SiftOptions so;
        so.weights = w;
        so.growth_limit = opt.sift_growth;
        m.sift(so);  // rooted f keeps its identity and function
      }
    } catch (const bdd::NodeLimitExceeded&) {
      ++res.cones_limited;
      core::metrics::count("logicopt.bdd_synth.limited");
      continue;
    }
    res.peak_live_nodes = std::max(res.peak_live_nodes, m.peak_live_nodes());

    // Candidate epoch: splice the MUX network in place of the root, score
    // the dirty cone, prove the outputs, keep only a strict power win.
    const std::uint64_t digest0 = inc.outputs_digest();
    if (opt.verify_frames != 0 && !ref)
      ref = sim::functional_trace(net, opt.verify_frames, opt.verify_seed);
    net.begin_undo();
    double after_w = 0.0;
    try {
      NodeId nr = bdd::synthesize_bdd(net, m, f, c.sources);
      net.substitute(root, nr);
      net.sweep();
      after_w = inc.score_candidate(net.touched_nodes());
    } catch (...) {
      // score_candidate's strong exception safety already restored the
      // oracle; restoring the circuit is on us before the stage sees it.
      net.rollback_undo();
      throw;
    }
    // The digest proof runs on every candidate; the interpreter trace only
    // on a power winner — a loser rolls back either way.
    const bool wins = cur_w - after_w > opt.min_gain_w;
    bool sound = inc.outputs_digest() == digest0;
    if (sound && wins && ref)
      sound = sim::functional_trace(net, opt.verify_frames,
                                    opt.verify_seed) == *ref;
    if (sound && wins) {
      net.commit_undo();
      cur_w = after_w;
      ++res.kept;
      core::metrics::count("logicopt.bdd_synth.kept");
    } else {
      net.rollback_undo();
      inc.revert_last();
      if (!sound) {
        ++res.unsound;
        core::metrics::count("logicopt.bdd_synth.unsound");
      } else {
        ++res.reverted;
        core::metrics::count("logicopt.bdd_synth.reverted");
      }
    }
  }

  res.power_after_w = cur_w;
  res.gates_after = net.num_gates();
  if (res.cones_capped != 0 || res.cones_limited != 0)
    res.note = std::to_string(res.cones_capped) + " cone(s) over the " +
               std::to_string(cap) + "-input cap, " +
               std::to_string(res.cones_limited) +
               " over the node budget (skipped, not silent)";
  return res;
}

}  // namespace lps::logicopt
