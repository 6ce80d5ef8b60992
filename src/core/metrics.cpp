#include "core/metrics.hpp"

#include <sstream>

namespace lps::core::metrics {

Registry& Registry::global() {
  static Registry r;
  return r;
}

void Registry::add(std::string_view name, double delta) {
  std::lock_guard lk(mu_);
  counters_[std::string(name)] += delta;
}

void Registry::set(std::string_view name, double value) {
  std::lock_guard lk(mu_);
  counters_[std::string(name)] = value;
}

void Registry::max(std::string_view name, double value) {
  std::lock_guard lk(mu_);
  auto [it, fresh] = counters_.try_emplace(std::string(name), value);
  if (!fresh && value > it->second) it->second = value;
}

double Registry::value(std::string_view name) const {
  std::lock_guard lk(mu_);
  auto it = counters_.find(std::string(name));
  return it == counters_.end() ? 0.0 : it->second;
}

void Registry::record_stage(std::string_view name, double wall_ms) {
  std::lock_guard lk(mu_);
  counters_["time_ms." + std::string(name)] += wall_ms;
  stages_.push_back({std::string(name), wall_ms});
}

std::map<std::string, double> Registry::counters() const {
  std::lock_guard lk(mu_);
  return counters_;
}

std::vector<StageEvent> Registry::stages() const {
  std::lock_guard lk(mu_);
  return stages_;
}

void Registry::reset() {
  std::lock_guard lk(mu_);
  counters_.clear();
  stages_.clear();
}

std::string Registry::to_json() const {
  std::lock_guard lk(mu_);
  std::ostringstream os;
  os << "{\"counters\": {";
  bool first = true;
  for (const auto& [name, v] : counters_) {
    os << (first ? "" : ", ") << '"' << name << "\": " << v;
    first = false;
  }
  os << '}';
  if (!stages_.empty()) {
    os << ", \"stages\": [";
    for (std::size_t i = 0; i < stages_.size(); ++i) {
      os << (i ? ", " : "") << "{\"name\": \"" << stages_[i].name
         << "\", \"wall_ms\": " << stages_[i].wall_ms << '}';
    }
    os << ']';
  }
  os << '}';
  return os.str();
}

ScopedTimer::~ScopedTimer() {
  double ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - start_)
                  .count();
  if (trace_)
    Registry::global().record_stage(name_, ms);
  else
    Registry::global().add("time_ms." + name_, ms);
}

}  // namespace lps::core::metrics
