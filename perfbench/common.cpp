#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "netlist/benchmarks.hpp"

namespace perfbench {

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  // Nearest rank: the smallest sample with at least q of the sample at or
  // below it.
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

// ---- tracer ---------------------------------------------------------------

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0_).count();
}

Tracer::Scope::Scope(Tracer& t, std::string name) : t_(t), index_(t.spans_.size()) {
  Span s;
  s.name = std::move(name);
  s.parent = t.open_.empty() ? -1 : static_cast<long>(t.open_.back());
  s.start_us = t.now_us();
  t.spans_.push_back(std::move(s));
  t.open_.push_back(index_);
}

Tracer::Scope::~Scope() {
  Span& s = t_.spans_[index_];
  s.end_us = t_.now_us();
  t_.open_.pop_back();
  if (s.parent >= 0)
    t_.spans_[static_cast<std::size_t>(s.parent)].child_us += s.end_us - s.start_us;
}

double Tracer::span_cost_us() {
  constexpr int kBatches = 9;
  constexpr int kSpans = 20000;
  std::vector<double> per_span;
  for (int b = 0; b < kBatches; ++b) {
    Tracer t;
    Scope top(t, "replay");
    auto t0 = Clock::now();
    for (int i = 0; i < kSpans; ++i) Scope s(t, "power.estimate");
    per_span.push_back(seconds_since(t0) * 1e6 / kSpans);
  }
  return median(per_span);
}

std::map<std::string, double> Tracer::self_ms() const {
  std::map<std::string, double> out;
  for (const Span& s : spans_)
    out[s.name] += (s.end_us - s.start_us - s.child_us) / 1000.0;
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::ofstream os(path, std::ios::trunc);
  if (!os) return false;
  os << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"id\":%zu,\"parent\":%ld}}",
                  s.start_us, s.end_us - s.start_us, i, s.parent);
    os << "{\"name\":\"" << s.name << "\"," << buf
       << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  os << "]\n";
  return static_cast<bool>(os);
}

// ---- workloads ------------------------------------------------------------

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"flow_odc", "flow_datapath"};
  return names;
}

Workload make_workload(const std::string& name) {
  namespace gen = lps::bench;
  Workload wl;
  wl.name = name;
  if (name == "flow_odc") {
    // The don't-care stage's size ladder: one reconvergent random DAG per
    // size, structure seed 7 (the ladder ROADMAP item 1 was measured on).
    // It stops at 150 gates: with the 200-gate DAG a pass took 8.5-13.5 s,
    // so a run had room for one timed pass, and one pass varied too much
    // from run to run on a shared host.
    for (int gates : {100, 125, 150})
      wl.circuits.push_back({"random_dag_32_" + std::to_string(gates),
                             gen::random_dag(32, gates, 7), false});
    wl.session_net = gen::random_dag(32, 150, 7);
  } else if (name == "flow_datapath") {
    wl.circuits.push_back({"carry_select_adder_16_4", gen::carry_select_adder(16, 4), false});
    wl.circuits.push_back({"comparator_gt_16", gen::comparator_gt(16), false});
    wl.circuits.push_back({"comparator_gt_32", gen::comparator_gt(32), false});
    wl.circuits.push_back({"alu_4", gen::alu(4), false});
    wl.circuits.push_back({"dct_butterfly_16", gen::dct_butterfly(16), false});
    wl.circuits.push_back({"alu_addsub_16", gen::alu_addsub(16), false});
    wl.circuits.push_back({"array_multiplier_4", gen::array_multiplier(4), false});
    wl.circuits.push_back({"ripple_carry_adder_16", gen::ripple_carry_adder(16), false});
    wl.circuits.push_back({"counter_16", gen::counter(16), true});
    wl.session_net = gen::carry_select_adder(16, 4);
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return wl;
}

}  // namespace perfbench
