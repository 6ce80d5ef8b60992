#include "logicopt/speculate.hpp"

#include <algorithm>
#include <thread>

#include "core/env.hpp"

namespace lps::logicopt::speculate {

int default_workers() {
  static const int cached = static_cast<int>(
      core::env_long_or("LPS_OPT_WORKERS", 1, 256, 1));
  return cached;
}

int resolve_workers(int requested) {
  int w = requested > 0 ? requested : default_workers();
  return std::clamp(w, 1, 256);
}

void run_workers(int workers, const std::function<void(int)>& fn) {
  if (workers <= 1) {
    fn(0);
    return;
  }
  std::vector<std::thread> team;
  team.reserve(static_cast<std::size_t>(workers) - 1);
  for (int w = 1; w < workers; ++w) team.emplace_back(fn, w);
  fn(0);
  for (auto& t : team) t.join();
}

double score_delta(const power::Analysis& before, const power::Analysis& after,
                   std::span<const NodeId> footprint) {
  const auto& pb = before.report.node_power_w;
  const auto& pa = after.report.node_power_w;
  double acc = 0.0;
  for (NodeId id : footprint) {
    double b = id < pb.size() ? pb[id] : 0.0;
    double a = id < pa.size() ? pa[id] : 0.0;
    acc += a - b;
  }
  return acc + (after.clock_power_w - before.clock_power_w);
}

std::vector<NodeId> dirty_footprint(const Netlist& net,
                                    const Netlist::TouchedNodes& touched) {
  std::vector<bool> mask =
      net.fanout_cone_of(touched.value_roots, /*through_dffs=*/true);
  if (mask.size() < net.size()) mask.resize(net.size(), false);
  for (NodeId id : touched.ids)
    if (id < mask.size()) mask[id] = true;
  std::vector<NodeId> out;
  for (NodeId id = 0; id < mask.size(); ++id)
    if (mask[id]) out.push_back(id);
  return out;
}

std::vector<NodeId> read_closure(const Netlist& net,
                                 std::span<const NodeId> seeds, int depth) {
  std::vector<NodeId> all;
  std::vector<NodeId> frontier;
  for (NodeId s : seeds)
    if (s != kNoNode && s < net.size()) frontier.push_back(s);
  all = frontier;
  for (int d = 0; d < depth && !frontier.empty(); ++d) {
    std::vector<NodeId> next;
    for (NodeId u : frontier)
      for (NodeId f : net.node(u).fanins)
        if (f < net.size()) next.push_back(f);
    all.insert(all.end(), next.begin(), next.end());
    frontier = std::move(next);
  }
  // Window extraction reads the fanout counts of interior helpers; include
  // the fanouts so an edit that could change such a count intersects this
  // set.
  std::size_t base = all.size();
  for (std::size_t i = 0; i < base; ++i)
    for (NodeId u : net.node(all[i]).fanouts)
      if (u < net.size()) all.push_back(u);
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  return all;
}

}  // namespace lps::logicopt::speculate
