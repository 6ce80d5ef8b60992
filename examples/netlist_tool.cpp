// netlist_tool — a small command-line front end over the public API, in the
// spirit of the SIS shell the surveyed flows lived in.
//
//   netlist_tool stats    <in.blif>
//   netlist_tool check    <in.blif>                 # lint + invariant check
//   netlist_tool power    <in.blif> [vectors]
//   netlist_tool optimize <in.blif> <out.blif>     # full low-power flow
//   netlist_tool balance  <in.blif> <out.blif>     # path balancing only
//   netlist_tool map      <in.blif> [area|delay|power]
//   netlist_tool resynth  <in.blif> <out.blif>     # window resynthesis
//   netlist_tool decomp   <in.blif> <out.blif> [chain|balanced|huffman]
//   netlist_tool gen      <name> <out.blif>        # built-in benchmarks
//
// Built-in names for `gen`: c17, rca8, rca16, csa16, mult4, mult8, cmp8,
// cmp16, parity16, alu4, dec4.

#include <fstream>
#include <iostream>
#include <string>

#include "core/flows.hpp"
#include "core/report.hpp"
#include "logicopt/decompose_power.hpp"
#include "logicopt/path_balance.hpp"
#include "logicopt/resynth.hpp"
#include "sim/logicsim.hpp"
#include "logicopt/techmap.hpp"
#include "netlist/benchmarks.hpp"
#include "netlist/blif.hpp"
#include "netlist/validate.hpp"
#include "power/activity.hpp"

namespace {

using namespace lps;

int usage() {
  std::cerr << "usage: netlist_tool stats|check|power|optimize|balance|map|gen "
               "<args>  (see source header)\n";
  return 2;
}

Netlist generate(const std::string& name) {
  for (auto& [n, net] : bench::default_suite())
    if (n == name) return net.clone();
  throw std::runtime_error("unknown benchmark: " + name);
}

void write_out(const Netlist& net, const std::string& path) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot write " + path);
  blif::write(f, net);
  std::cout << "wrote " << path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  std::string cmd = argv[1];
  try {
    if (cmd == "gen") {
      if (argc < 4) return usage();
      write_out(generate(argv[2]), argv[3]);
      return 0;
    }
    if (cmd == "check") {
      // Non-throwing parse: print every diagnostic, not just the first.
      std::ifstream f(argv[2]);
      if (!f) {
        std::cerr << "error: cannot open " << argv[2] << "\n";
        return 1;
      }
      diag::DiagEngine eng;
      auto parsed = blif::parse(f, eng, argv[2]);
      if (parsed) validate(*parsed, eng);
      if (!eng.str().empty()) std::cerr << eng.str();
      if (!parsed || !eng.ok()) {
        std::cerr << argv[2] << ": " << eng.num_errors() << " error(s), "
                  << eng.num_warnings() << " warning(s)\n";
        return 1;
      }
      std::cout << argv[2] << ": ok ("
                << (eng.num_warnings() ? std::to_string(eng.num_warnings()) +
                                             " warning(s), "
                                       : std::string())
                << parsed->num_gates() << " gates)\n";
      return 0;
    }
    Netlist net = blif::read_file(argv[2]);
    if (cmd == "stats") {
      std::cout << "model " << net.name() << ": " << net.inputs().size()
                << " inputs, " << net.outputs().size() << " outputs, "
                << net.num_gates() << " gates, " << net.dffs().size()
                << " registers, " << net.num_literals() << " literals, "
                << "depth " << net.critical_delay() << "\n";
    } else if (cmd == "power") {
      power::AnalysisOptions ao;
      ao.n_vectors = argc > 3 ? std::stoul(argv[3]) : 2048;
      auto a = power::analyze(net, ao);
      std::cout << core::power_line(a.report.breakdown) << "\n"
                << "glitch fraction: " << core::Table::pct(a.glitch_fraction)
                << ", clock power: "
                << core::Table::num(a.clock_power_w * 1e6, 2) << " uW\n";
    } else if (cmd == "optimize") {
      if (argc < 4) return usage();
      auto r = core::optimize_combinational(net);
      core::Table t({"stage", "status", "power uW", "gates"});
      for (const auto& s : r.stages)
        t.row({s.stage, s.status, core::Table::num(s.power_w * 1e6, 2),
               std::to_string(s.gates)});
      t.print(std::cout);
      std::cout << "saving: " << core::Table::pct(r.saving()) << "\n";
      write_out(r.circuit, argv[3]);
    } else if (cmd == "balance") {
      if (argc < 4) return usage();
      auto r = logicopt::full_balance(net);
      std::cout << "+" << r.buffers_inserted << " buffers, delay "
                << r.critical_delay_before << " -> "
                << r.critical_delay_after << "\n";
      write_out(net, argv[3]);
    } else if (cmd == "resynth") {
      if (argc < 4) return usage();
      auto st = sim::measure_activity(net, 64, 7);
      auto r = logicopt::resynthesize_windows(net, st.transition_prob);
      std::cout << r.windows_examined << " windows, " << r.nodes_rewritten
                << " rewrites, gates " << r.gates_before << " -> "
                << r.gates_after << "\n";
      write_out(net, argv[3]);
    } else if (cmd == "decomp") {
      if (argc < 4) return usage();
      std::string shape = argc > 4 ? argv[4] : "huffman";
      auto sh = shape == "chain"      ? logicopt::DecomposeShape::Chain
                : shape == "balanced" ? logicopt::DecomposeShape::Balanced
                                      : logicopt::DecomposeShape::Huffman;
      auto st = sim::measure_activity(net, 64, 7);
      auto r = logicopt::decompose_wide_gates(net, sh, st.transition_prob);
      std::cout << r.gates_decomposed << " wide gates decomposed (+"
                << r.gates_added << " 2-input gates)\n";
      write_out(net, argv[3]);
    } else if (cmd == "map") {
      std::string obj = argc > 3 ? argv[3] : "power";
      auto objective = obj == "area"    ? logicopt::MapObjective::Area
                       : obj == "delay" ? logicopt::MapObjective::Delay
                                        : logicopt::MapObjective::Power;
      auto lib = logicopt::standard_library();
      auto r = logicopt::tech_map(net, lib, objective);
      core::Table t({"cell", "count"});
      for (auto& [cell, count] : r.cell_histogram)
        t.row({cell, std::to_string(count)});
      t.print(std::cout);
      std::cout << "area " << core::Table::num(r.total_area, 1) << ", arrival "
                << core::Table::num(r.arrival, 1) << ", switched cap "
                << core::Table::num(r.switched_cap_ff, 1) << " fF/cyc\n";
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
