// E20 — the survey's thesis, §VI: "We have surveyed power optimizations
// applicable at various levels of abstraction" — the point of a CAD system
// is that they compose.  This bench runs the full combinational low-power
// flow (strash -> ODC rewriting -> window resynthesis -> datapath rewriting
// -> BDD synthesis -> path balancing -> in-place sizing, each stage measured
// and reverted if it loses) across the benchmark suite and reports the
// composed savings with stage attribution.

#include <algorithm>

#include "bench_util.hpp"
#include "core/flows.hpp"
#include "core/report.hpp"
#include "netlist/benchmarks.hpp"
#include "sim/logicsim.hpp"

namespace {

using namespace lps;

void report() {
  benchx::banner("E20 bench_flow",
                 "Composition: the surveyed optimizations stack; losing "
                 "stages are measured and reverted (the buffer-capacitance "
                 "caveat of S-III-A.2 made operational).");
  core::Table t({"circuit", "power in uW", "power out uW", "saving",
                 "gates in->out", "stages kept", "equiv"});
  double saving_min = 1.0, saving_max = -1.0;
  bool all_equiv = true;
  for (const auto& [name, net] : bench::default_suite()) {
    core::FlowOptions opt;
    opt.sim_vectors = 1024;
    auto r = core::optimize_combinational(net, opt);
    // The first two rows (input, strash) report circuits, not transforms.
    const std::size_t transforms = r.stages.size() - 2;
    const auto kept = std::count_if(
        r.stages.begin() + 2, r.stages.end(),
        [](const core::StageReport& s) { return s.status == "kept"; });
    const core::StageReport* out = r.last_kept_stage();
    bool equiv = sim::equivalent_random(net, r.circuit, 256, 5);
    saving_min = std::min(saving_min, r.saving());
    saving_max = std::max(saving_max, r.saving());
    all_equiv = all_equiv && equiv;
    t.row({name, core::Table::num(r.stages.front().power_w * 1e6, 1),
           core::Table::num(out->power_w * 1e6, 1),
           core::Table::pct(r.saving()),
           std::to_string(r.stages.front().gates) + " -> " +
               std::to_string(out->gates),
           std::to_string(kept) + "/" + std::to_string(transforms),
           equiv ? "yes" : "NO"});
  }
  t.print(std::cout);
  benchx::claim("E20.saving_min", saving_min);
  benchx::claim("E20.saving_max", saving_max);
  benchx::claim("E20.all_equivalent", all_equiv);
  std::cout << '\n';
}

void bm_flow(benchmark::State& state) {
  auto net = bench::carry_select_adder(8, 2);
  core::FlowOptions opt;
  opt.sim_vectors = 256;
  for (auto _ : state) {
    auto r = core::optimize_combinational(net, opt);
    benchmark::DoNotOptimize(r.stages.size());
  }
}
BENCHMARK(bm_flow);

}  // namespace

LPS_BENCH_MAIN(report)
