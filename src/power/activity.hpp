// activity.hpp — one-call power analysis driver.
//
// Ties the simulators (sim/) to the Eqn. (1) model (power_model.hpp).  Two
// activity sources are offered:
//   ZeroDelay — functional toggles only (what logic-level estimators count);
//   Timed     — event-driven with glitches (what the circuit dissipates).
// The gap between them is the spurious-switching power of §III-A.2.

#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "power/power_model.hpp"
#include "sim/eventsim.hpp"
#include "sim/logicsim.hpp"

namespace lps::power {

enum class ActivityMode { ZeroDelay, Timed };

struct AnalysisOptions {
  ActivityMode mode = ActivityMode::Timed;
  std::size_t n_vectors = 2048;  // timed vectors (ZeroDelay uses /64 frames)
  std::uint64_t seed = 0xC0FFEE;
  std::vector<double> pi_one_prob;  // empty = 0.5 everywhere
  PowerParams params;
  /// Optional cooperative cancellation token (not owned; must outlive the
  /// call).  Threaded into the Monte Carlo drivers, which poll it at shard
  /// and frame-batch boundaries; a fired token aborts the analysis with
  /// core::CancelledError and discards all partial counts.  The token does
  /// not participate in the result — two analyses with the same options and
  /// different tokens (that never fire) are bit-identical.
  const core::CancelToken* cancel = nullptr;
};

struct Analysis {
  PowerReport report;
  std::vector<double> toggles_per_cycle;  // per node (mode-dependent)
  double glitch_fraction = 0.0;           // only meaningful in Timed mode
  double glitch_power_w = 0.0;            // switching power due to glitches
  double clock_power_w = 0.0;             // clock-pin power (gating-aware);
                                          // already included in report totals
  /// Vectors actually simulated.  ZeroDelay packs 64 patterns per frame and
  /// rounds `n_vectors` down to a frame multiple (min 2 frames = 128), so
  /// this can differ from AnalysisOptions::n_vectors — check it instead of
  /// assuming the request was honored exactly.
  std::size_t vectors_used = 0;
  /// Code path that produced the numbers: "tape[<width>,b<block>]" for
  /// ZeroDelay (sim::engine_desc()) or "eventsim" for Timed.  Every tape
  /// width/block is bit-identical for the same options, so this is
  /// observability for reports and service responses, never a result
  /// qualifier.
  std::string engine;
};

/// Simulate and evaluate Eqn. (1).  Deterministic in `seed`.
Analysis analyze(const Netlist& net, const AnalysisOptions& opt = {});

/// Number of zero-delay frames analyze() simulates for a vector request —
/// the rounding rule Analysis::vectors_used reports (64 patterns per frame,
/// min 2 frames).
inline std::size_t zero_delay_frames(std::size_t n_vectors) {
  return std::max<std::size_t>(2, n_vectors / 64);
}

namespace detail {
/// Assemble the ZeroDelay Analysis from measured activity statistics.
/// Shared between analyze() and the incremental re-estimator
/// (power/incremental.hpp) so both derive the final report through
/// identical arithmetic — the bit-equality contract depends on it.
Analysis assemble_zero_delay(const Netlist& net, const sim::ActivityStats& st,
                             const AnalysisOptions& opt);
}  // namespace detail

/// Power under a *user-specified* input sequence rather than random
/// vectors — the sequential-estimation setting of Monteiro & Devadas [28]
/// ("power estimation ... under user-specified input sequences and
/// programs").  `sequence[t][i]` is the value of net.inputs()[i] in cycle
/// t; the event-driven simulator runs the exact trace.
Analysis analyze_sequence(const Netlist& net,
                          const std::vector<std::vector<bool>>& sequence,
                          const PowerParams& params = {});

}  // namespace lps::power
