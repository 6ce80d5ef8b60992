// flows.hpp — end-to-end low-power flows combining the surveyed techniques.
//
// The survey's thesis is that savings compose across abstraction levels.
// These flows chain the library's passes the way a 1995 CAD system would:
//   combinational: strash -> don't-care opt -> resynthesis -> datapath
//   rewriting -> hybrid BDD synthesis -> path balancing -> sizing,
//   sequential (FSM): low-power encoding -> synthesis -> self-loop clock
//   gating, with Eqn. (1) power measured between every stage.

#pragma once

#include <string>
#include <vector>

#include "core/parallel.hpp"
#include "netlist/netlist.hpp"
#include "power/activity.hpp"
#include "seq/stg.hpp"

namespace lps::core {

struct StageReport {
  std::string stage;
  double power_w = 0.0;
  double glitch_fraction = 0.0;
  std::size_t gates = 0;
  int delay = 0;
  /// Outcome of this stage: "kept" (improved or baseline), "reverted"
  /// (legal rewrite that raised power — backed out), or "failed" (the
  /// transform threw or broke the circuit — rolled back; see note).
  std::string status = "kept";
  std::string note;  // diagnostic text when status == "failed"
  /// Incremental-estimate instrumentation: nodes re-simulated for this
  /// stage's estimate vs. what a full re-analysis evaluates.  Equal on full
  /// fallbacks (e.g. Timed mode); both 0 when the stage failed before
  /// estimation or the estimate degraded past the cone update.
  std::size_t resim_nodes = 0;
  std::size_t full_nodes = 0;
  /// Journal epochs actually rewound while this stage ran, measured from
  /// Netlist::undo_rollbacks() — not inferred from the status.  Includes
  /// rollbacks a transform performs internally (e.g. the datapath engine
  /// backing out losing candidates), plus the stage-epoch rollback itself
  /// for reverted/failed stages.  Summed over a flow this equals the
  /// journal's own counter, which is what the accounting tests audit.
  std::size_t rollbacks = 0;
};

struct FlowOptions {
  std::size_t sim_vectors = 2048;
  std::uint64_t seed = 5;
  bool run_dontcare = true;
  /// Power-driven datapath rewriting (logicopt/rewrite/): exact structural
  /// rules scored one candidate at a time through a private cone-scoped
  /// power oracle.  Runs after resynthesis, before balancing.
  bool run_datapath = true;
  /// Hybrid BDD→MUX extraction (logicopt/bdd_synth.hpp): per-cone BDDs on
  /// the complement-edge manager, activity-weighted sifting, kept per cone
  /// only when the MUX form beats the current structure on power.  Runs
  /// after datapath rewriting, before balancing.
  bool run_bdd_synth = true;
  bool run_balance = true;
  bool run_sizing = true;
  /// Activity source for the between-stage estimates, which go through
  /// IncrementalAnalyzer (power/incremental.hpp) and are bit-identical to a
  /// full power::analyze of each stage's circuit.  Timed (default) keeps
  /// the glitch-aware reports the survey's Eqn. (1) story is told with, at
  /// a full re-run per stage (recorded in power.inc.* metrics); ZeroDelay
  /// trades glitch visibility for cone-scoped re-estimation.
  power::ActivityMode estimate_mode = power::ActivityMode::Timed;
  /// Unused: every stage examines its candidates serially.  Kept only so
  /// existing callers that assign it still compile; it changes nothing.
  int opt_workers = 0;
  power::PowerParams params;
  /// Optional cooperative cancellation token (not owned; must outlive the
  /// flow).  Threaded into every between-stage power estimate; when it
  /// fires, the in-flight stage is rolled back (the journal restores the
  /// pre-stage circuit, the estimator restores its caches) and the flow
  /// aborts with core::CancelledError.  Cancellation never yields a
  /// half-applied stage.
  const core::CancelToken* cancel = nullptr;
};

struct FlowResult {
  Netlist circuit;
  std::vector<StageReport> stages;  // first entry = input circuit

  /// The last stage whose transform was kept (reverted/failed tails report
  /// the power of the circuit they *rolled back to*, not of the kept
  /// result, so reading stages.back() unconditionally misattributes the
  /// saving when the flow ends on a losing stage).  Returns nullptr when no
  /// stage was kept.
  const StageReport* last_kept_stage() const {
    for (auto it = stages.rbegin(); it != stages.rend(); ++it)
      if (it->status == "kept") return &*it;
    return nullptr;
  }

  /// Fractional power saving of the final kept circuit vs the input stage.
  /// 0 when there are no stages, no kept stage, or a zero-power baseline.
  double saving() const {
    const StageReport* last = last_kept_stage();
    if (stages.size() < 2 || stages.front().power_w <= 0 || !last) return 0.0;
    return 1.0 - last->power_w / stages.front().power_w;
  }
};

/// Combinational low-power flow; function verified stage by stage.
FlowResult optimize_combinational(const Netlist& input,
                                  const FlowOptions& opt = {});

/// Sequential low-power flow: the combinational stage ladder (strash ->
/// don't-care -> resynthesis -> datapath -> bdd_synth -> balancing ->
/// sizing) run on a netlist with
/// registers, plus a final hold-on-self-loop gating stage
/// (seq::gate_fsm_self_loops).  Register-crossing transforms make this the
/// flow that exercises Dff-crossing incremental re-estimation.
FlowResult optimize_sequential(const Netlist& input,
                               const FlowOptions& opt = {});

struct FsmFlowResult {
  Netlist circuit;
  double wswitch_binary = 0.0;    // weighted FF switching, binary codes
  double wswitch_lowpower = 0.0;  // after annealing
  double power_binary_w = 0.0;    // measured on synthesized logic
  double power_lowpower_w = 0.0;
  double power_gated_w = 0.0;     // low-power encoding + self-loop gating
  double clock_saving_fraction = 0.0;  // from self-loop gating
};

/// FSM flow: encode (binary vs annealed), synthesize, self-loop gate.
FsmFlowResult optimize_fsm(const seq::Stg& stg, const FlowOptions& opt = {});

}  // namespace lps::core
