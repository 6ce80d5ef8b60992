// quickstart — load (or build) a circuit, measure its Eqn. (1) power, run
// the combinational low-power flow, and print a stage-by-stage report.
//
// Usage:
//   quickstart                # uses a built-in carry-select adder
//   quickstart circuit.blif   # optimizes your own BLIF netlist

#include <iostream>

#include "core/flows.hpp"
#include "core/report.hpp"
#include "netlist/benchmarks.hpp"
#include "netlist/blif.hpp"
#include "power/activity.hpp"

int main(int argc, char** argv) {
  using namespace lps;

  Netlist net = [&] {
    if (argc <= 1) return bench::carry_select_adder(16, 4);
    try {
      return blif::read_file(argv[1]);
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      std::exit(1);
    }
  }();
  std::cout << "Circuit: " << net.name() << " — " << net.inputs().size()
            << " inputs, " << net.outputs().size() << " outputs, "
            << net.num_gates() << " gates\n\n";

  // Step 1: power analysis (event-driven, includes glitches).
  power::AnalysisOptions ao;
  ao.n_vectors = 2048;
  auto analysis = power::analyze(net, ao);
  std::cout << "Initial power: " << core::power_line(analysis.report.breakdown)
            << "\n  glitch fraction of switching power: "
            << core::Table::pct(analysis.glitch_fraction) << "\n\n";

  // Step 2: the full combinational low-power flow (strash, don't-cares,
  // path balancing, slack-based sizing), verified stage by stage.
  core::FlowOptions opt;
  opt.sim_vectors = 2048;
  auto flow = core::optimize_combinational(net, opt);

  core::Table t(
      {"stage", "status", "power (uW)", "glitch %", "gates", "delay"});
  for (const auto& s : flow.stages)
    t.row({s.stage, s.status, core::Table::num(s.power_w * 1e6, 2),
           core::Table::pct(s.glitch_fraction), std::to_string(s.gates),
           std::to_string(s.delay)});
  t.print(std::cout);
  std::cout << "\nTotal power saving: " << core::Table::pct(flow.saving())
            << " (function verified at every stage)\n";
  return 0;
}
