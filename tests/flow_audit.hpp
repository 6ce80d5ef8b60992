// flow_audit.hpp — re-derive a flow's reported powers from power::analyze.
//
// The flows (core/flows.hpp) estimate between-stage power through the
// cone-scoped IncrementalAnalyzer, and every StageReport promises the
// number a full power::analyze of the circuit it describes would give,
// bit for bit.  A flow result only carries its final circuit, so the audit
// reaches each report's circuit another way:
//   - the final circuit must measure exactly last_kept_stage()'s power;
//   - a reverted or failed stage restored the circuit before it, so its
//     report must equal the last kept report before it;
//   - prefix flows cut with the run_* flags end on intermediate circuits:
//     their stages must replay the full flow's leading stages, and each
//     prefix's own final circuit is audited as above.
// Shared by the test suite and bench_incremental (E21/E22 flow bands).

#pragma once

#include <string>
#include <vector>

#include "core/flows.hpp"
#include "power/activity.hpp"
#include "seq/encoding.hpp"
#include "seq/stg.hpp"

namespace lps::flow_audit {

inline power::AnalysisOptions estimate_options(const core::FlowOptions& opt) {
  power::AnalysisOptions ao;
  ao.mode = opt.estimate_mode;
  ao.n_vectors = opt.sim_vectors;
  ao.seed = opt.seed;
  ao.params = opt.params;
  return ao;
}

inline double analyzed_w(const Netlist& net, const core::FlowOptions& opt) {
  return power::analyze(net, estimate_options(opt)).report.breakdown.total_w();
}

/// Checks one result against its own final circuit.  "" when consistent,
/// else the first discrepancy.
inline std::string audit_result(const core::FlowResult& r,
                                const core::FlowOptions& opt) {
  const core::StageReport* last = r.last_kept_stage();
  if (!last) return "no kept stage";
  if (analyzed_w(r.circuit, opt) != last->power_w)
    return "final circuit != " + last->stage;
  // stages[0] describes the input circuit, not the strashed one the flow
  // transforms; the kept chain starts at stages[1].
  for (std::size_t i = 2; i < r.stages.size(); ++i) {
    const auto& s = r.stages[i];
    if (s.status == "kept") continue;
    std::size_t k = i - 1;
    while (k > 1 && r.stages[k].status != "kept") --k;
    if (s.power_w != r.stages[k].power_w)
      return s.stage + " != kept " + r.stages[k].stage;
  }
  return {};
}

/// Runs `flow(input, opt)` and every prefix of it; "" when every reported
/// power matches power::analyze, else the first discrepancy.
template <typename Flow>
std::string audit_flow(const Netlist& input, const core::FlowOptions& opt,
                       Flow flow) {
  core::FlowResult full = flow(input, opt);
  if (analyzed_w(input, opt) != full.stages[0].power_w) return "input";
  if (analyzed_w(strash(input), opt) != full.stages[1].power_w)
    return "strash";
  if (auto err = audit_result(full, opt); !err.empty()) return err;

  // Prefix cuts in stage-ladder order; flags already off in `opt` add no cut.
  std::vector<bool core::FlowOptions::*> flags{
      &core::FlowOptions::run_dontcare, &core::FlowOptions::run_datapath,
      &core::FlowOptions::run_bdd_synth, &core::FlowOptions::run_balance,
      &core::FlowOptions::run_sizing};
  for (std::size_t cut = 1; cut < flags.size(); ++cut) {
    if (!(opt.*flags[cut - 1])) continue;
    core::FlowOptions popt = opt;
    for (std::size_t f = cut; f < flags.size(); ++f) popt.*flags[f] = false;
    core::FlowResult p = flow(input, popt);
    if (auto err = audit_result(p, popt); !err.empty())
      return "prefix " + std::to_string(cut) + ": " + err;
    // The sequential flow ends every prefix on its own gating stage.
    for (std::size_t i = 0; i < p.stages.size(); ++i) {
      if (p.stages[i].stage.rfind("selfloop-gate", 0) == 0) break;
      if (i >= full.stages.size() ||
          p.stages[i].stage != full.stages[i].stage ||
          p.stages[i].power_w != full.stages[i].power_w ||
          p.stages[i].status != full.stages[i].status)
        return "prefix " + std::to_string(cut) + " diverges at " +
               p.stages[i].stage;
    }
  }
  return {};
}

/// The FSM flow's two estimates against full analyses of the circuits they
/// describe: the low-power encoding before gating, and the gated result.
inline std::string audit_fsm(const seq::Stg& stg,
                             const core::FlowOptions& opt) {
  core::FsmFlowResult r = core::optimize_fsm(stg, opt);
  seq::AnnealOptions an;
  an.seed = static_cast<std::uint32_t>(opt.seed);
  Netlist low = seq::synthesize_fsm(stg, seq::low_power_encoding(stg, an),
                                    stg.state_name(0) + "_low");
  if (analyzed_w(low, opt) != r.power_lowpower_w) return "low-power encoding";
  if (analyzed_w(r.circuit, opt) != r.power_gated_w) return "gated";
  return {};
}

}  // namespace lps::flow_audit
