#include "logicopt/power_factor.hpp"

#include "power/activity.hpp"

namespace lps::logicopt {

namespace {

std::vector<NodeId> make_inputs(Netlist& n, unsigned num_vars) {
  std::vector<NodeId> leaves;
  for (unsigned v = 0; v < num_vars; ++v)
    leaves.push_back(n.add_input("x" + std::to_string(v)));
  return leaves;
}

}  // namespace

Netlist sop_to_netlist(const sop::Sop& f, const std::string& name) {
  Netlist n(name);
  auto leaves = make_inputs(n, f.num_vars());
  std::vector<NodeId> terms;
  for (const auto& c : f.cubes()) {
    std::vector<NodeId> lits;
    for (unsigned v = 0; v < f.num_vars(); ++v) {
      if (c.has_pos(v)) lits.push_back(leaves[v]);
      if (c.has_neg(v)) lits.push_back(n.add_not(leaves[v]));
    }
    if (lits.empty())
      terms.push_back(n.add_const(true));
    else if (lits.size() == 1)
      terms.push_back(lits[0]);
    else
      terms.push_back(n.add_gate(GateType::And, std::move(lits)));
  }
  NodeId out;
  if (terms.empty())
    out = n.add_const(false);
  else if (terms.size() == 1)
    out = terms[0];
  else
    out = n.add_gate(GateType::Or, std::move(terms));
  n.add_output(out, "f");
  return n;
}

Netlist expr_to_netlist(const sop::Expr& e, unsigned num_vars,
                        const std::string& name) {
  Netlist n(name);
  auto leaves = make_inputs(n, num_vars);
  NodeId out = sop::build_expr(n, e, leaves);
  n.add_output(out, "f");
  n.sweep();
  return n;
}

FactoringComparison compare_factorings(const sop::Sop& f,
                                       const std::vector<double>& one_prob,
                                       bool rescore) {
  FactoringComparison r;
  r.flat = sop_to_netlist(f, "flat");
  auto lit_expr = sop::factor(f);
  std::vector<double> weights;
  weights.reserve(one_prob.size());
  for (double p : one_prob) weights.push_back(2.0 * p * (1.0 - p));
  auto pow_expr = sop::factor_weighted(f, weights);
  r.literal_form = expr_to_netlist(lit_expr, f.num_vars(), "literal_factored");
  r.power_form = expr_to_netlist(pow_expr, f.num_vars(), "power_factored");
  r.lits_flat = f.num_literals();
  r.lits_literal = lit_expr.num_literals();
  r.lits_power = pow_expr.num_literals();
  if (rescore) {
    // Score the *built* structures: the factoring weights only describe the
    // cover's inputs, so two factorings with equal weighted literals can
    // still switch very differently once their internal nodes exist.
    power::AnalysisOptions ao;
    ao.mode = power::ActivityMode::ZeroDelay;
    ao.n_vectors = 4096;
    ao.pi_one_prob = one_prob;
    auto total_w = [&ao](const Netlist& n) {
      return power::analyze(n, ao).report.breakdown.total_w();
    };
    r.power_flat_w = total_w(r.flat);
    r.power_literal_w = total_w(r.literal_form);
    r.power_power_w = total_w(r.power_form);
    r.measured_winner =
        r.power_power_w <= r.power_literal_w ? "power" : "literal";
  }
  return r;
}

}  // namespace lps::logicopt
