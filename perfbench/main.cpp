// main.cpp — the repository benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>]
//
// One run of a workload takes about --seconds in all and has four parts:
//   set-up   netlist generation, BLIF serialisation of the session netlist,
//            thread-pool start, service start and the session loads —
//            repeated several times, the median reported as setup_s;
//   flows    the low-power flow (Timed estimates, 1024 vectors) over the
//            workload's netlist set, a fixed number of times (fewer, but at
//            least once, if --seconds is too short for them);
//   sessions a closed loop of two clients editing their own sessions on an
//            in-process service, for a fixed share of --seconds;
//   checks   after peak memory is read, so the checker's own allocations do
//            not count in peak_rss_mb: every flow result checked
//            independently, every timed pass required bit-identical to the
//            first and to a pass at pool size 1, and the sampled session
//            replies checked against the clients' mirrors.
// With --trace 1 the flow pass runs once untraced (registry counters), then
// the stage loop is replayed under spans; the per-layer metrics come from
// that run and the spans are written to <out-dir>.
//
// The last line of stdout is one JSON object: correct, attempted, failed and
// the metrics (end-to-end with --trace 0, per-layer with --trace 1).  A
// run whose quality numbers are not deterministic, or whose replay meets a
// stage it does not know, prints no result and exits non-zero.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common.hpp"
#include "core/parallel.hpp"

namespace {

using namespace perfbench;
namespace core = lps::core;

constexpr int kClients = 2;
// Each client runs its requests' simulation on its own thread: with a shared
// pool one client's Timed estimate would hold the pool while the other
// client's mutate waits behind it.
constexpr unsigned kSessionLanes = 1;
constexpr int kSetupReps = 21;
constexpr std::chrono::milliseconds kSetupGap{50};
// Timed flow passes per run.  The count is fixed, not fitted to the time
// left, because the process's resident memory grows with the passes it has
// run (on flow_datapath 57 MB after one, 87 MB after ten): with a fitted
// count, a faster flow would read as a memory regression.
constexpr std::size_t kFlowPasses = 6;
// The session loop gets the time left after the flow passes and before the
// checks, but at least this share of --seconds.
constexpr double kSessionShare = 0.4;
// A traced run's session loop gets what is left after the replay and before
// the checks, but at least this share of --seconds.
constexpr double kMinTracedSessionShare = 0.15;
// Time set aside for the checks after the measured part.  The pool-size-1
// pass took 1.0 timed flow passes on flow_odc and 1.25 on flow_datapath on a
// 4-core host; the output check and the session mirror check together took
// about 2 s.
constexpr double kSoloPerPass = 1.5;
constexpr double kCheckReserveS = 2.5;
constexpr std::size_t kMaxNotes = 20;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string out_dir = ".";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--out-dir <dir>]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have[4] = {false, false, false, false};
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    std::string val = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = val;
        have[0] = true;
      } else if (flag == "--seed") {
        a.seed = std::stoull(val);
        have[1] = true;
      } else if (flag == "--seconds") {
        a.seconds = std::stod(val);
        have[2] = a.seconds > 0 && a.seconds <= 600;
      } else if (flag == "--trace") {
        if (val != "0" && val != "1") usage("--trace takes 0 or 1");
        a.trace = val == "1";
        have[3] = true;
      } else if (flag == "--out-dir") {
        a.out_dir = val;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + val);
    }
  }
  if (!(have[0] && have[1] && have[2] && have[3]))
    usage("--workload, --seed, --seconds (0, 600] and --trace are required");
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), a.workload) == names.end())
    usage("unknown workload " + a.workload);
  return a;
}

// The flow's thread budget: every hardware lane up to four.  Set explicitly,
// never read from the environment.
unsigned flow_lanes() {
  unsigned hc = std::thread::hardware_concurrency();
  return std::clamp(hc, 1u, 4u);
}

void set_pool(unsigned lanes) {
  core::set_num_threads(lanes);
  core::parallel_for(lanes, [](std::size_t) {});  // start the workers now
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

struct Output {
  std::vector<std::pair<std::string, std::pair<double, const char*>>> metrics;
  void add(const std::string& name, double value, const char* unit) {
    metrics.push_back({name, {std::isfinite(value) ? value : 0.0, unit}});
  }
  void print(bool correct, std::size_t attempted, std::size_t failed) const {
    std::string s = "{\"correct\": ";
    s += correct ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(attempted);
    s += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.17g", metrics[i].second.first);
      s += (i ? ", \"" : "\"") + metrics[i].first + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].second.second + "\"}";
    }
    s += "}}";
    std::cout << s << std::endl;
  }
};

void report_notes(const char* what, const std::vector<std::string>& notes) {
  for (std::size_t i = 0; i < notes.size() && i < kMaxNotes; ++i)
    std::cerr << "perfbench: " << what << ": " << notes[i] << "\n";
  if (notes.size() > kMaxNotes)
    std::cerr << "perfbench: " << what << ": ... " << notes.size() - kMaxNotes
              << " more\n";
}

void add_verb_latency(Output& out, const SessionStats& ss, Verb v) {
  const auto& lat = ss.latency_ms[v];
  out.add(std::string(verb_name(v)) + ".p50_ms", median(lat), "ms");
  out.add(std::string(verb_name(v)) + ".p99_ms", quantile(lat, 0.99), "ms");
}

int run(const Args& a) {
  const auto run_start = Clock::now();
  core::set_pin_threads(false);
  core::set_numa_first_touch(true);
  const unsigned lanes = flow_lanes();

  // ---- set-up (median of several) ----
  std::vector<double> setup_samples;
  Workload wl;
  std::unique_ptr<SessionLoad> sessions;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    sessions.reset();
    // Spread the repetitions over about a second, so their median is not
    // taken from one short stretch of machine state.
    std::this_thread::sleep_for(kSetupGap);
    auto t0 = Clock::now();
    wl = make_workload(a.workload);
    sessions = std::make_unique<SessionLoad>(wl.session_net, a.seed, kClients);
    set_pool(lanes);
    sessions->start();
    setup_samples.push_back(seconds_since(t0));
  }

  const core::FlowOptions fo = flow_options(static_cast<int>(lanes));
  // Warm-up: one untimed flow on the set's first netlist, so lazy library
  // set-up and first-touch allocation do not land in the first timed pass.
  {
    Workload first{wl.name, {wl.circuits.front()}, {}};
    run_flow_pass(first, fo, false);
  }
  std::vector<std::string> flow_notes;
  Output out;
  std::size_t attempted = wl.circuits.size();
  std::size_t failed = 0;
  const double measured_from = seconds_since(run_start);
  auto phase = [&](const char* what, Clock::time_point t0) {
    std::cerr << "perfbench: " << what << " " << seconds_since(t0) << " s\n";
  };

  if (!a.trace) {
    // ---- flows: timed passes ----
    // kFlowPasses of them, fewer only if the next one, the shortest session
    // loop and the checks (judged by the previous pass) would not end within
    // --seconds.
    const double min_session_s = a.seconds * kSessionShare;
    std::vector<FlowPass> passes;
    auto tf = Clock::now();
    double last = 0.0;
    do {
      auto tp = Clock::now();
      passes.push_back(run_flow_pass(wl, fo, false));
      last = seconds_since(tp);
    } while (passes.size() < kFlowPasses &&
             seconds_since(run_start) + last * (1.0 + kSoloPerPass) + min_session_s +
                     kCheckReserveS <= a.seconds);
    phase("flows", tf);

    // ---- sessions ----
    const double session_s =
        std::max(min_session_s, a.seconds - seconds_since(run_start) -
                                    last * kSoloPerPass - kCheckReserveS);
    set_pool(kSessionLanes);
    SessionStats ss = sessions->run(session_s);
    const double rss = peak_rss_mb();

    // ---- checks: independent output check, determinism, session mirror ----
    auto tc = Clock::now();
    failed += check_outputs(wl, passes[0], a.seed, flow_notes);
    phase("output check", tc);
    auto ts = Clock::now();
    set_pool(1);
    passes.push_back(run_flow_pass(wl, flow_options(1), false));
    phase("pool-1 pass", ts);
    const Quality q = passes[0].quality();
    const auto hashes = passes[0].hashes();
    for (std::size_t i = 1; i < passes.size(); ++i) {
      if (passes[i].quality() == q && passes[i].hashes() == hashes) continue;
      std::cerr << "perfbench: determinism check failed: pass " << i
                << (i + 1 == passes.size() ? " (pool size 1)" : "")
                << " differs from pass 0 in quality or output hashes; "
                   "refusing to report\n";
      return 3;
    }
    auto tm = Clock::now();
    sessions->check(ss);
    phase("session check", tm);
    attempted += ss.sent;
    failed += ss.failed;

    // Wall seconds for one pass over the set: per netlist, the median over
    // the timed passes (the pool-size-1 pass is not one of them), summed.
    const std::size_t timed_passes = passes.size() - 1;
    double flow_wall = 0.0;
    for (std::size_t c = 0; c < wl.circuits.size(); ++c) {
      std::vector<double> walls;
      for (std::size_t i = 0; i < timed_passes; ++i) walls.push_back(passes[i].wall_s[c]);
      flow_wall += median(walls);
    }

    report_notes("flow", flow_notes);
    report_notes("session", ss.notes);
    std::cerr << "perfbench: peak RSS " << rss << " MB after the measured part, "
              << peak_rss_mb() << " MB after the checks\n";
    const auto lat = ss.all_latency_ms();
    std::cerr << "perfbench: " << a.workload << " seed " << a.seed << ": "
              << timed_passes << " timed flow pass(es) over "
              << wl.circuits.size() << " netlists, flow_fail_frac "
              << static_cast<double>(failed - ss.failed) / static_cast<double>(wl.circuits.size())
              << "; " << lat.size() << " requests (" << ss.checked
              << " checked against the mirror), req_fail_frac "
              << (ss.sent ? static_cast<double>(ss.failed) / static_cast<double>(ss.sent) : 0.0)
              << "\n";

    out.add("flow_wall_s", flow_wall, "s");
    out.add("power_ratio_geomean", q.power, "ratio");
    out.add("gate_ratio_geomean", q.gates, "ratio");
    out.add("delay_ratio_geomean", q.delay, "ratio");
    out.add("req_p50_ms", median(lat), "ms");
    out.add("req_p99_ms", quantile(lat, 0.99), "ms");
    out.add("req_per_s", ss.throughput(), "1/s");
    out.add("setup_s", median(setup_samples), "s");
    out.add("peak_rss_mb", rss, "MB");
  } else {
    // ---- untraced pass with registry counters, then the traced replay ----
    auto tf = Clock::now();
    FlowPass base = run_flow_pass(wl, fo, true);
    Tracer tracer;
    try {
      failed += replay_traced(wl, base, fo, tracer, flow_notes);
    } catch (const std::runtime_error& e) {
      std::cerr << "perfbench: " << e.what() << "\n";
      return 4;
    }
    phase("flow and replay", tf);
    std::string trace_path = a.out_dir + "/trace-" + a.workload + "-" +
                             std::to_string(a.seed) + ".json";
    if (!tracer.write(trace_path)) {
      std::cerr << "perfbench: cannot write " << trace_path << "\n";
      return 5;
    }

    const double session_s =
        std::max(a.seconds * kMinTracedSessionShare,
                 a.seconds - seconds_since(run_start) - kCheckReserveS);
    set_pool(kSessionLanes);
    SessionStats ss = sessions->run(session_s);
    auto tc = Clock::now();
    failed += check_outputs(wl, base, a.seed, flow_notes);
    sessions->check(ss);
    phase("checks", tc);
    attempted += ss.sent;
    failed += ss.failed;
    report_notes("flow", flow_notes);
    report_notes("session", ss.notes);
    std::cerr << "perfbench: spans written to " << trace_path << "\n";

    auto self = tracer.self_ms();
    for (const char* span :
         {"logicopt.dontcare", "logicopt.resynth", "logicopt.datapath",
          "logicopt.bdd_synth", "logicopt.balance", "circuit.sizing",
          "power.estimate", "sim.verify", "netlist.strash", "netlist.journal",
          "netlist.check"})
      out.add(std::string(span) + "_ms", self[span], "ms");
    // The cost of the spans themselves: how many the replay recorded times
    // what one costs to record.
    out.add("trace.overhead_ms",
            static_cast<double>(tracer.size()) * Tracer::span_cost_us() / 1000.0, "ms");

    const RegistryCounts& k = base.counts;
    auto share = [](double num, double den) { return den > 0 ? num / den : 0.0; };
    out.add("power.inc.fallback_full", k.fallback_full, "count");
    out.add("power.inc.resim_fraction", share(k.node_evals, k.node_evals_full), "ratio");
    out.add("bdd.nodes", k.bdd_nodes, "count");
    out.add("bdd.ite_hit_rate", share(k.ite_hits, k.ite_lookups), "ratio");
    out.add("logicopt.rewrite.keep_ratio", share(k.rewrite_kept, k.rewrite_tried), "ratio");
    out.add("logicopt.bdd_synth.keep_ratio", share(k.bdd_synth_kept, k.bdd_synth_tried), "ratio");
    out.add("flow.stage_keep_ratio", share(k.stages_kept, k.stages_tried), "ratio");
    out.add("sim.event.vectors", k.event_vectors, "count");
    out.add("journal.rollbacks", k.rollbacks, "count");

    for (Verb v : {kMutate, kEstimateCached, kEstimateTimed, kRollback})
      add_verb_latency(out, ss, v);
    out.add("session.resim_nodes", share(ss.resim_nodes, static_cast<double>(ss.resim_replies)),
            "count");
    // Share of session estimates that missed the cached analyzer and ran a
    // full analyze.  The Timed ones always do, so the mix fixes a floor of
    // 2 in 8; anything above it is a cached estimate that fell back.
    out.add("session.estimates_full_frac",
            share(ss.estimates_full, ss.estimates_full + ss.estimates_cached), "ratio");
  }

  std::cerr << "perfbench: whole run " << seconds_since(run_start) << " s (measured part from "
            << measured_from << " s) for --seconds " << a.seconds << "\n";
  out.print(failed == 0, attempted, failed);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args a = parse_args(argc, argv);
  try {
    return run(a);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
