// E25 — power-driven datapath rewriting.  The §III-A synthesis story ends
// with structure: arithmetic cones carry algebraic freedom (associativity,
// carry-save forms, shared subterms, mux distribution) that window-local
// resynthesis cannot see.  logicopt/rewrite/ applies exact datapath rules
// one candidate at a time, each scored through a cone-scoped incremental
// power oracle on the circuit as it currently stands and proven
// bit-identical against the interpreter before it may commit.  This bench
// pins rule soundness (every rule at every match site on the generated
// family), measures the switching-power reduction of the flow with the
// datapath stage against the same flow without it, and checks that no
// engine run silently truncated its candidate queue.
//
// It also carries E26, an unbanded table of serial window resynthesis on
// the same family and a random-DAG size ladder: wall time and how many
// boundary minterms the simulation filter settled before the BDD
// reachability check.

#include <algorithm>
#include <chrono>
#include <cmath>

#include "bench_util.hpp"
#include "core/flows.hpp"
#include "core/metrics.hpp"
#include "core/report.hpp"
#include "logicopt/resynth.hpp"
#include "logicopt/rewrite/engine.hpp"
#include "netlist/benchmarks.hpp"
#include "sim/logicsim.hpp"

namespace {

using namespace lps;

// The datapath family of the E25 claim: multipliers, ALUs and the
// DCT-butterfly add/sub pairs the carry/share/reassociation rules target.
std::vector<bench::NamedNetlist> family() {
  std::vector<bench::NamedNetlist> fam;
  fam.push_back({"mult4", bench::array_multiplier(4)});
  fam.push_back({"mult8", bench::array_multiplier(8)});
  fam.push_back({"alu4", bench::alu(4)});
  fam.push_back({"addsub8", bench::alu_addsub(8)});
  fam.push_back({"dct8", bench::dct_butterfly(8)});
  fam.push_back({"dct16", bench::dct_butterfly(16)});
  return fam;
}

double switching_w(const Netlist& net) {
  power::AnalysisOptions ao;
  ao.mode = power::ActivityMode::ZeroDelay;
  ao.n_vectors = 4096;
  ao.seed = 123;  // independent of every oracle/estimator seed in the flows
  return power::analyze(net, ao).report.breakdown.switching_w;
}

void report() {
  benchx::banner(
      "E25 bench_rewrite",
      "Power-driven datapath rewriting: exact structural rules (reassoc, "
      "carry-save, sharing, mux laws) scored per candidate through the "
      "cone-scoped incremental oracle, every keep proven bit-identical "
      "against the interpreter before it commits.");

  // ---- rule soundness: every rule at every match site -------------------
  bool sound = true;
  std::size_t sites = 0;
  for (const auto& [name, net] : family()) {
    sim::SimTrace ref = sim::functional_trace(net, 64, 33);
    for (const auto& cand : logicopt::rewrite::match_rules(net)) {
      Netlist work = net.clone();
      if (!logicopt::rewrite::apply_rule(work, cand)) continue;
      ++sites;
      sim::SimTrace now = sim::functional_trace(work, 64, 33);
      if (!(now == ref) || !work.check().empty()) {
        sound = false;
        std::cout << "UNSOUND: " << name << " rule "
                  << logicopt::rewrite::rule_name(cand.rule) << " target "
                  << cand.target << " variant " << int(cand.variant) << "\n";
      }
    }
  }
  std::cout << "rule soundness: " << sites << " applied match sites, "
            << (sound ? "all exact" : "MISMATCHES") << "\n\n";

  // ---- engine-level switching reduction ---------------------------------
  // The headline measure: rewrite_datapath on the naively elaborated
  // family circuits (constant carry-ins, zero-padded reduction rows,
  // per-bit complemented operands — exactly what the generators produce),
  // measured before/after with an independent ZeroDelay stimulus.  This is
  // the subsystem's own claim; E20 already bands the composed flow.
  core::Table t({"circuit", "before W", "after W", "saving", "kept",
                 "reverted", "gates"});
  double log_ratio_sum = 0.0;
  std::size_t n_measured = 0;
  double capped_runs = 0.0;
  for (const auto& [name, net] : family()) {
    Netlist work = net.clone();
    core::metrics::reset();  // scope the cap metric to this engine run
    auto res = logicopt::rewrite::rewrite_datapath(work);
    capped_runs += core::metrics::value("logicopt.rewrite.capped_runs");
    double pb = switching_w(net);
    double pa = switching_w(work);
    double saving = pb > 0.0 ? 1.0 - pa / pb : 0.0;
    log_ratio_sum += std::log(pa / pb);
    ++n_measured;
    benchx::claim("E25.saving." + std::string(name), saving);
    t.row({name, core::Table::num(pb * 1e6, 2) + "u",
           core::Table::num(pa * 1e6, 2) + "u",
           core::Table::num(saving * 100.0, 1) + "%",
           core::Table::num(static_cast<double>(res.kept), 0),
           core::Table::num(static_cast<double>(res.reverted), 0),
           std::to_string(res.gates_before) + "->" +
               std::to_string(res.gates_after)});
  }
  t.print(std::cout);
  double reduction_geomean =
      1.0 - std::exp(log_ratio_sum / static_cast<double>(n_measured));
  std::cout << "\nswitching reduction geomean (engine vs input): "
            << core::Table::num(reduction_geomean * 100.0, 1) << "%\n";

  // ---- flow-level no-regression gate ------------------------------------
  // The stage rides behind strash/don't-care/resynth, which already absorb
  // the constant redundancy; what's left to it there is the algebraic
  // restructuring.  The claim is that turning the stage on never costs
  // measurable power on the family (the keep-check backs out losers).
  double flow_delta_min = 1.0;
  for (const auto& [name, net] : family()) {
    core::FlowOptions base;
    base.estimate_mode = power::ActivityMode::ZeroDelay;
    base.run_datapath = false;
    core::FlowOptions with = base;
    with.run_datapath = true;
    double pb = switching_w(core::optimize_combinational(net, base).circuit);
    double pd = switching_w(core::optimize_combinational(net, with).circuit);
    double delta = pb > 0.0 ? 1.0 - pd / pb : 0.0;
    flow_delta_min = std::min(flow_delta_min, delta);
  }
  std::cout << "flow-level delta (datapath stage on vs off), worst circuit: "
            << core::Table::num(flow_delta_min * 100.0, 1) << "%\n\n";

  benchx::claim("E25.soundness", sound);
  benchx::claim("E25.match_sites", static_cast<double>(sites));
  benchx::claim("E25.reduction_geomean", reduction_geomean);
  benchx::claim("E25.flow_delta_min", flow_delta_min);
  benchx::claim("E25.capped_runs", capped_runs);

  // ---- E26: window resynthesis, serial, with its reachability filter ------
  // Reported, not banded: wall time depends on the host.  "minterms" are
  // the boundary patterns tabulated, "sim" those seen in the round's
  // simulation (reachable), "bdd" those left to the BDD conjunction.
  std::vector<bench::NamedNetlist> ladder = family();
  for (int g = 100; g <= 800; g += 100)
    ladder.push_back({"random_dag_32_" + std::to_string(g),
                      bench::random_dag(32, g, 7)});
  core::Table ts({"circuit", "gates", "rewritten", "examined", "minterms",
                  "sim", "bdd", "ms"});
  for (const auto& [name, net] : ladder) {
    auto st = sim::measure_activity(net, 64, 5);
    Netlist work = net.clone();
    core::metrics::reset();
    auto t0 = std::chrono::steady_clock::now();
    auto r = logicopt::resynthesize_windows(work, st.transition_prob);
    double ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    auto metric = [](const char* m) {
      return core::Table::num(core::metrics::value(m), 0);
    };
    ts.row({name, std::to_string(r.gates_before),
            core::Table::num(r.nodes_rewritten, 0),
            core::Table::num(r.windows_examined, 0),
            metric("logicopt.resynth.minterms"),
            metric("logicopt.resynth.sim_reached"),
            metric("logicopt.resynth.bdd_checked"), core::Table::num(ms, 1)});
  }
  std::cout << "E26 serial window resynthesis:\n";
  ts.print(std::cout);
  std::cout << '\n';
}

// ---- timings: the engines, and the flow with/without the datapath stage --
// Names pair as <base>_base / <base>_dp; the pairing feeds the
// rewrite_savings table row alongside the per-circuit E25.saving.* claims.

template <typename Make>
void bm_engine(benchmark::State& state, Make make) {
  Netlist net = make();
  logicopt::rewrite::RewriteOptions opt;
  opt.sim_vectors = 1024;
  for (auto _ : state) {
    Netlist work = net.clone();
    auto res = logicopt::rewrite::rewrite_datapath(work, opt);
    benchmark::DoNotOptimize(res.kept);
  }
}

template <typename Make>
void bm_resynth(benchmark::State& state, Make make) {
  Netlist net = make();
  auto st = sim::measure_activity(net, 64, 5);
  for (auto _ : state) {
    Netlist work = net.clone();
    auto res = logicopt::resynthesize_windows(work, st.transition_prob);
    benchmark::DoNotOptimize(res.nodes_rewritten);
  }
}

template <typename Make>
void bm_flow(benchmark::State& state, Make make, bool datapath) {
  Netlist net = make();
  core::FlowOptions opt;
  opt.estimate_mode = power::ActivityMode::ZeroDelay;
  opt.sim_vectors = 512;
  opt.run_datapath = datapath;
  for (auto _ : state) {
    auto res = core::optimize_combinational(net, opt);
    benchmark::DoNotOptimize(res.circuit.num_gates());
  }
}

void bm_rewrite_engine_dct8(benchmark::State& s) {
  bm_engine(s, [] { return bench::dct_butterfly(8); });
}
void bm_rewrite_engine_mult8(benchmark::State& s) {
  bm_engine(s, [] { return bench::array_multiplier(8); });
}
void bm_resynth_dct8(benchmark::State& s) {
  bm_resynth(s, [] { return bench::dct_butterfly(8); });
}
void bm_resynth_mult8(benchmark::State& s) {
  bm_resynth(s, [] { return bench::array_multiplier(8); });
}
void bm_rewrite_flow_dct8_base(benchmark::State& s) {
  bm_flow(s, [] { return bench::dct_butterfly(8); }, false);
}
void bm_rewrite_flow_dct8_dp(benchmark::State& s) {
  bm_flow(s, [] { return bench::dct_butterfly(8); }, true);
}
BENCHMARK(bm_rewrite_engine_dct8);
BENCHMARK(bm_rewrite_engine_mult8);
BENCHMARK(bm_resynth_dct8);
BENCHMARK(bm_resynth_mult8);
BENCHMARK(bm_rewrite_flow_dct8_base);
BENCHMARK(bm_rewrite_flow_dct8_dp);

}  // namespace

LPS_BENCH_MAIN(report)
