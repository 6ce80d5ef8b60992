// E21 — incremental cone-scoped power re-estimation.  The synthesis loops
// of §III re-estimate power after every local rewrite; re-running the full
// Monte Carlo per candidate move makes activity-driven synthesis scale as
// O(netlist x vectors) per stage.  IncrementalAnalyzer re-simulates only
// the touched fanout cone over the cached frame stream and splices exact
// integer counters, so the estimate is bit-identical to a fresh full
// power::analyze while evaluating a fraction of the nodes.  This bench
// pins the equality across the generated suite (the CI equality gate) and
// reports the node-evaluation reduction and wall-clock speedup.

#include <algorithm>

#include "../tests/flow_audit.hpp"
#include "bench_util.hpp"
#include "core/flows.hpp"
#include "core/report.hpp"
#include "netlist/benchmarks.hpp"
#include "power/incremental.hpp"
#include "seq/stg.hpp"
#include "sim/compiled.hpp"

namespace {

using namespace lps;

power::AnalysisOptions zd_options() {
  power::AnalysisOptions ao;
  ao.mode = power::ActivityMode::ZeroDelay;
  ao.n_vectors = 2048;
  return ao;
}

// The scripted local rewrite: a double inverter spliced into one primary
// output's driver — function-preserving, touches a thin output-side cone.
Netlist::TouchedNodes mutate_po_driver(Netlist& net) {
  net.begin_undo();
  NodeId o = net.outputs()[0];
  if (!net.node(o).fanins.empty())
    net.replace_fanin(o, 0, net.add_not(net.add_not(net.node(o).fanins[0])));
  else
    net.add_output(net.add_not(o), "extra");
  auto touched = net.touched_nodes();
  net.commit_undo();
  return touched;
}

void report() {
  benchx::banner(
      "E21 bench_incremental",
      "Incremental cone-scoped re-estimation: bit-identical to full "
      "re-analysis while re-simulating only the touched fanout cone "
      "(the Simopt-style metadata-reuse lever for synthesis loops).");

  // ---- per-circuit mutation differential --------------------------------
  core::Table t({"circuit", "live nodes", "cone nodes", "evals saved",
                 "identical", "vectors"});
  bool identical_all = true;
  double reduction_max = 0.0;
  std::size_t vectors_used = 0;
  auto ao = zd_options();
  for (auto& [name, net0] : bench::default_suite()) {
    Netlist net = std::move(net0);
    power::IncrementalAnalyzer inc(net, ao);
    auto touched = mutate_po_driver(net);
    inc.reanalyze(touched);
    auto full = power::analyze(net, ao);
    bool same =
        inc.analysis().report.breakdown.total_w() ==
            full.report.breakdown.total_w() &&
        inc.analysis().report.weighted_activity == full.report.weighted_activity &&
        inc.analysis().toggles_per_cycle == full.toggles_per_cycle;
    identical_all = identical_all && same;
    const auto& up = inc.last_update();
    double reduction = up.resim_nodes > 0
                           ? static_cast<double>(up.live_nodes) /
                                 static_cast<double>(up.resim_nodes)
                           : static_cast<double>(up.live_nodes);
    reduction_max = std::max(reduction_max, reduction);
    vectors_used = full.vectors_used;
    t.row({name, std::to_string(up.live_nodes),
           std::to_string(up.resim_nodes),
           core::Table::num(reduction, 1) + "x", same ? "yes" : "NO",
           std::to_string(full.vectors_used)});
  }
  t.print(std::cout);

  // ---- flow equality gate: every reported estimate of all three flows
  // against power::analyze of the circuit it describes (flow_audit.hpp).
  core::FlowOptions zo;
  zo.sim_vectors = 512;
  zo.estimate_mode = power::ActivityMode::ZeroDelay;
  bool flow_comb = true, flow_seq = true;
  for (const auto& [name, net] : bench::default_suite()) {
    if (net.num_gates() > 300) continue;  // keep the sweep quick
    auto err = flow_audit::audit_flow(net, zo, core::optimize_combinational);
    if (!err.empty())
      std::cout << "E21 comb MISMATCH on " << name << ": " << err << "\n";
    flow_comb = flow_comb && err.empty();
  }
  for (auto* mk : {+[] { return bench::counter(8); },
                   +[] { return bench::shift_register(16); }}) {
    auto err = flow_audit::audit_flow(mk(), zo, core::optimize_sequential);
    if (!err.empty()) std::cout << "E21 seq MISMATCH: " << err << "\n";
    flow_seq = flow_seq && err.empty();
  }
  core::FlowOptions fsm_opt = zo;
  fsm_opt.sim_vectors = 256;
  const bool flow_fsm =
      flow_audit::audit_fsm(seq::counter_fsm(8), fsm_opt).empty();

  std::cout << "\nflow estimates vs full analysis: comb "
            << (flow_comb ? "identical" : "DIFFERS") << ", seq "
            << (flow_seq ? "identical" : "DIFFERS") << ", fsm "
            << (flow_fsm ? "identical" : "DIFFERS") << "\n";

  benchx::claim("E21.identical_all", identical_all);
  benchx::claim("E21.flow_identical_comb", flow_comb);
  benchx::claim("E21.flow_identical_seq", flow_seq);
  benchx::claim("E21.flow_identical_fsm", flow_fsm);
  benchx::claim("E21.eval_reduction_max", reduction_max);
  benchx::claim("E21.vectors_used", static_cast<double>(vectors_used));

  // ---- E22: the compiled tape must be invisible to results ---------------
  // Incremental re-estimation on the tape against the same update forced
  // onto the interpreter cone path (the tape-failure fallback), and the
  // full synthesis flow on the tape against power::analyze.
  bool inc_identical = true;
  for (auto& [name, net0] : bench::default_suite()) {
    Netlist net = std::move(net0);
    power::Analysis a, b;
    {
      Netlist n = net;
      power::IncrementalAnalyzer inc(n, ao);
      auto touched = mutate_po_driver(n);
      a = inc.reanalyze(touched);
    }
    {
      Netlist n = net;
      power::IncrementalAnalyzer inc(n, ao);
      auto touched = mutate_po_driver(n);
      power::detail::force_tape_failures(1);
      b = inc.reanalyze(touched);
      power::detail::force_tape_failures(0);
      if (!inc.last_update().tape_fallback) b = {};  // fallback not taken
    }
    bool same = a.report.breakdown.total_w() == b.report.breakdown.total_w() &&
                a.report.weighted_activity == b.report.weighted_activity &&
                a.toggles_per_cycle == b.toggles_per_cycle;
    inc_identical = inc_identical && same;
    if (!same) std::cout << "E22 incremental MISMATCH on " << name << "\n";
  }

  // The flows always estimate on the tape, so the E21 combinational audit
  // above is this check: its sweep is not repeated.
  const bool flow_compiled = flow_comb;
  std::cout << "compiled-engine equality: incremental "
            << (inc_identical ? "identical" : "DIFFERS") << ", flow "
            << (flow_compiled ? "identical" : "DIFFERS") << "\n";
  benchx::claim("E22.inc_identical_compiled", inc_identical);
  benchx::claim("E22.flow_identical_compiled", flow_compiled);
  std::cout << '\n';
}

// ---- timings: full re-analysis vs incremental update, paired -------------
// Names pair as <base>_full / <base>_inc; aggregate_bench.py derives the
// incremental-vs-full speedup column from the pairs.

template <typename Make>
void bm_full(benchmark::State& state, Make make) {
  Netlist net = make();
  auto ao = zd_options();
  mutate_po_driver(net);
  for (auto _ : state) {
    auto a = power::analyze(net, ao);
    benchmark::DoNotOptimize(a.report.breakdown.switching_w);
  }
}

template <typename Make>
void bm_inc(benchmark::State& state, Make make) {
  Netlist net = make();
  auto ao = zd_options();
  power::IncrementalAnalyzer inc(net, ao);
  auto touched = mutate_po_driver(net);
  for (auto _ : state) {
    // Idempotent: the cone re-evaluates to the same words every iteration.
    const auto& a = inc.reanalyze(touched);
    benchmark::DoNotOptimize(a.report.breakdown.switching_w);
  }
}

void bm_reestimate_mult8_full(benchmark::State& s) {
  bm_full(s, [] { return bench::array_multiplier(8); });
}
void bm_reestimate_mult8_inc(benchmark::State& s) {
  bm_inc(s, [] { return bench::array_multiplier(8); });
}
void bm_reestimate_dag_full(benchmark::State& s) {
  bm_full(s, [] { return bench::random_dag(16, 400, 11); });
}
void bm_reestimate_dag_inc(benchmark::State& s) {
  bm_inc(s, [] { return bench::random_dag(16, 400, 11); });
}
void bm_reestimate_counter_full(benchmark::State& s) {
  bm_full(s, [] { return bench::counter(16); });
}
void bm_reestimate_counter_inc(benchmark::State& s) {
  bm_inc(s, [] { return bench::counter(16); });
}
BENCHMARK(bm_reestimate_mult8_full);
BENCHMARK(bm_reestimate_mult8_inc);
BENCHMARK(bm_reestimate_dag_full);
BENCHMARK(bm_reestimate_dag_inc);
BENCHMARK(bm_reestimate_counter_full);
BENCHMARK(bm_reestimate_counter_inc);

// Engine-paired incremental updates: <base>_interp / <base>_comp feed the
// compiled-vs-interpreted speedup column in aggregate_bench.py.  The
// interpreter path rebuilds a LogicSim per update (O(netlist)); the
// compiled path patches the cached tape from the undo journal (O(edit),
// with amortized rebuilds at the garbage bound).
template <typename Make>
void bm_inc_engine(benchmark::State& state, Make make, bool compiled) {
  Netlist net = make();
  auto ao = zd_options();
  power::IncrementalAnalyzer inc(net, ao);
  auto touched = mutate_po_driver(net);
  // The interpreter arm forces every tape patch onto the fallback path.
  if (!compiled) power::detail::force_tape_failures(1 << 30);
  for (auto _ : state) {
    const auto& a = inc.reanalyze(touched);
    benchmark::DoNotOptimize(a.report.breakdown.switching_w);
  }
  power::detail::force_tape_failures(0);
}

void bm_reestimate_mult8_interp(benchmark::State& s) {
  bm_inc_engine(s, [] { return bench::array_multiplier(8); }, false);
}
void bm_reestimate_mult8_comp(benchmark::State& s) {
  bm_inc_engine(s, [] { return bench::array_multiplier(8); }, true);
}
void bm_reestimate_dag_interp(benchmark::State& s) {
  bm_inc_engine(s, [] { return bench::random_dag(16, 400, 11); }, false);
}
void bm_reestimate_dag_comp(benchmark::State& s) {
  bm_inc_engine(s, [] { return bench::random_dag(16, 400, 11); }, true);
}
BENCHMARK(bm_reestimate_mult8_interp);
BENCHMARK(bm_reestimate_mult8_comp);
BENCHMARK(bm_reestimate_dag_interp);
BENCHMARK(bm_reestimate_dag_comp);

// Width-paired incremental updates: <base>_wide_scalar / <base>_wide_<isa>
// feed the SIMD speedup column in aggregate_bench.py.  The blocked cone
// driver gathers boundary words, replays the cone under the selected
// kernels and scatters the gate columns back; the lane width must change
// only the wall clock.  Unsupported widths are skipped with an error so
// the JSON omits them.
template <typename Make>
void bm_inc_width(benchmark::State& state, Make make, sim::SimdWidth w) {
  if (sim::resolve_simd(w) != w) {
    state.SkipWithError("lane width unsupported on this host");
    return;
  }
  sim::SimOptions o = sim::sim_options();
  o.width = w;
  sim::ScopedSimOptions scope(o);
  Netlist net = make();
  auto ao = zd_options();
  power::IncrementalAnalyzer inc(net, ao);
  auto touched = mutate_po_driver(net);
  for (auto _ : state) {
    const auto& a = inc.reanalyze(touched);
    benchmark::DoNotOptimize(a.report.breakdown.switching_w);
  }
}

void bm_reestimate_mult8_wide_scalar(benchmark::State& s) {
  bm_inc_width(s, [] { return bench::array_multiplier(8); },
               sim::SimdWidth::Scalar);
}
void bm_reestimate_mult8_wide_avx2(benchmark::State& s) {
  bm_inc_width(s, [] { return bench::array_multiplier(8); },
               sim::SimdWidth::Avx2);
}
void bm_reestimate_mult8_wide_avx512(benchmark::State& s) {
  bm_inc_width(s, [] { return bench::array_multiplier(8); },
               sim::SimdWidth::Avx512);
}
void bm_reestimate_dag_wide_scalar(benchmark::State& s) {
  bm_inc_width(s, [] { return bench::random_dag(16, 400, 11); },
               sim::SimdWidth::Scalar);
}
void bm_reestimate_dag_wide_avx2(benchmark::State& s) {
  bm_inc_width(s, [] { return bench::random_dag(16, 400, 11); },
               sim::SimdWidth::Avx2);
}
void bm_reestimate_dag_wide_avx512(benchmark::State& s) {
  bm_inc_width(s, [] { return bench::random_dag(16, 400, 11); },
               sim::SimdWidth::Avx512);
}
BENCHMARK(bm_reestimate_mult8_wide_scalar);
BENCHMARK(bm_reestimate_mult8_wide_avx2);
BENCHMARK(bm_reestimate_mult8_wide_avx512);
BENCHMARK(bm_reestimate_dag_wide_scalar);
BENCHMARK(bm_reestimate_dag_wide_avx2);
BENCHMARK(bm_reestimate_dag_wide_avx512);

}  // namespace

LPS_BENCH_MAIN(report)
