// test_speculate.cpp — the speculation layer (logicopt/speculate.hpp), the
// one engine that speculates (window resynthesis) and the serial datapath
// rewriter's scoring helpers.
//
// The contracts under test:
//  * bit-identity: window resynthesis produces the same netlist and the
//    same counts at worker counts {1, 2, 4, 8}, and the combinational flow
//    is identical at opt_workers 1 and 4 with only resynth speculating;
//  * the footprint-local delta, read closure and conflict set the commit
//    loops are built on;
//  * outputs_digest() is a faithful PO-stream witness, and the rewriter's
//    belt-and-braces verify_full mode changes no decision.

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "core/flows.hpp"
#include "core/metrics.hpp"
#include "logicopt/resynth.hpp"
#include "logicopt/rewrite/engine.hpp"
#include "logicopt/speculate.hpp"
#include "netlist/benchmarks.hpp"
#include "power/activity.hpp"
#include "power/incremental.hpp"
#include "sim/logicsim.hpp"

namespace {

using namespace lps;
namespace speculate = logicopt::speculate;
using logicopt::rewrite::RewriteOptions;
using logicopt::rewrite::RewriteResult;
using logicopt::rewrite::rewrite_datapath;

// ---- knob plumbing --------------------------------------------------------

TEST(SpeculateKnob, ResolveAndScopedOverride) {
  int def = speculate::default_workers();
  EXPECT_GE(def, 1);
  EXPECT_EQ(speculate::resolve_workers(0), def);
  EXPECT_EQ(speculate::resolve_workers(3), 3);  // explicit beats default
  EXPECT_EQ(speculate::resolve_workers(-5), def);
  EXPECT_EQ(speculate::resolve_workers(100000), 256);  // clamped
}

// ---- delta scoring and id-set helpers -------------------------------------

TEST(SpeculateUnit, ScoreDeltaSumsFootprintAndClockTerm) {
  power::Analysis before, after;
  before.report.node_power_w = {1.0, 2.0, 3.0, 4.0};
  after.report.node_power_w = {1.0, 2.5, 3.0, 3.25};
  before.clock_power_w = after.clock_power_w = 0.75;
  std::vector<NodeId> fp{1, 3};
  EXPECT_DOUBLE_EQ(speculate::score_delta(before, after, fp),
                   (2.5 - 2.0) + (3.25 - 4.0));
  // Footprint entries beyond either vector score as zero (created/removed
  // nodes).
  std::vector<NodeId> fp2{1, 9};
  EXPECT_DOUBLE_EQ(speculate::score_delta(before, after, fp2), 0.5);
  // A moved clock term is included.
  after.clock_power_w = 0.5;
  EXPECT_DOUBLE_EQ(speculate::score_delta(before, after, fp),
                   (2.5 - 2.0) + (3.25 - 4.0) + (0.5 - 0.75));
}

TEST(SpeculateUnit, ReadClosureCoversFaninsSharingScansAndFanouts) {
  Netlist net("closure");
  NodeId a = net.add_input("a");
  NodeId b = net.add_input("b");
  NodeId c = net.add_input("c");
  NodeId g1 = net.add_and(a, b);
  NodeId g2 = net.add_or(g1, c);
  NodeId g3 = net.add_xor(g2, a);
  net.add_output(g3, "f");
  const NodeId seeds[1] = {g2};
  auto closure = speculate::read_closure(net, seeds, 3);
  auto has = [&](NodeId id) {
    return std::find(closure.begin(), closure.end(), id) != closure.end();
  };
  EXPECT_TRUE(has(g2));
  EXPECT_TRUE(has(g1));  // fanin
  EXPECT_TRUE(has(a));   // transitive fanin
  EXPECT_TRUE(has(g3));  // fanout of the seed (sharing-scan context)
  // Sorted unique.
  for (std::size_t i = 1; i < closure.size(); ++i)
    EXPECT_LT(closure[i - 1], closure[i]);
}

TEST(SpeculateUnit, ConflictSetIgnoresIdsBeyondSnapshot) {
  speculate::ConflictSet set(4);
  EXPECT_TRUE(set.empty());
  std::vector<NodeId> keep{2, 9};  // 9 is past the snapshot: ignored
  set.add(keep);
  std::vector<NodeId> probe_hit{0, 2};
  std::vector<NodeId> probe_miss{0, 3};
  std::vector<NodeId> probe_new{9};
  EXPECT_TRUE(set.hits(probe_hit));
  EXPECT_FALSE(set.hits(probe_miss));
  EXPECT_FALSE(set.hits(probe_new));
}

TEST(SpeculateUnit, ConflictSetWithFootprintCatchesActivityReconvergence) {
  // A keep at g1 dirties the toggle counters of its whole downstream cone.
  // A later candidate at g3 shares no structure with the keep, but its
  // delta reads counters the keep changed — so the conflict set must carry
  // the keep's dirty activity footprint, not just its touched ids, or the
  // candidate transplants a pre-keep delta (the E26 identity regression).
  Netlist net("reconv");
  NodeId a = net.add_input("a");
  NodeId b = net.add_input("b");
  NodeId g1 = net.add_and(a, b);
  NodeId g2 = net.add_or(g1, b);
  NodeId g3 = net.add_xor(g2, a);
  net.add_output(g3, "f");
  Netlist::TouchedNodes keep;
  keep.ids = {g1};
  keep.value_roots = {g1};
  std::vector<NodeId> fp = speculate::dirty_footprint(net, keep);
  speculate::ConflictSet ids_only(net.size());
  ids_only.add(keep.ids);
  speculate::ConflictSet with_fp(net.size());
  with_fp.add(keep.ids);
  with_fp.add(fp);
  std::vector<NodeId> later_fp{g3};  // downstream candidate's footprint
  EXPECT_FALSE(ids_only.hits(later_fp));  // structural-only set misses it
  EXPECT_TRUE(with_fp.hits(later_fp));
}

// ---- PO-stream digest ------------------------------------------------------

static power::AnalysisOptions zd_options(std::size_t vectors = 1024,
                                         std::uint64_t seed = 7) {
  power::AnalysisOptions ao;
  ao.mode = power::ActivityMode::ZeroDelay;
  ao.n_vectors = vectors;
  ao.seed = seed;
  return ao;
}

TEST(SpeculateOracle, OutputsDigestWitnessesPoStreams) {
  Netlist net("digest");
  NodeId a = net.add_input("a");
  NodeId b = net.add_input("b");
  NodeId g = net.add_and(a, b);
  net.add_output(g, "f");
  power::IncrementalAnalyzer oracle(net, zd_options());
  std::uint64_t d0 = oracle.outputs_digest();

  // An inexact edit (And -> Or) changes the PO stream: the digest moves,
  // and reverting restores it.
  net.begin_undo();
  NodeId g2 = net.add_or(a, b);
  net.substitute(g, g2);
  net.sweep();
  auto touched = net.touched_nodes();
  oracle.reanalyze(touched);
  EXPECT_NE(oracle.outputs_digest(), d0);
  net.rollback_undo();
  oracle.revert_last();
  EXPECT_EQ(oracle.outputs_digest(), d0);

  // previous_analysis() is only defined while an update is pending.
  EXPECT_THROW((void)oracle.previous_analysis(), std::logic_error);
}

// ---- datapath rewriter: verify_full changes no decision -------------------

TEST(SpeculateRewrite, VerifyFullModeStaysIdentical) {
  // The datapath family the E25 claim is measured on.
  std::vector<bench::NamedNetlist> fam;
  fam.push_back({"mult4", bench::array_multiplier(4)});
  fam.push_back({"mult8", bench::array_multiplier(8)});
  fam.push_back({"alu4", bench::alu(4)});
  fam.push_back({"addsub8", bench::alu_addsub(8)});
  fam.push_back({"dct8", bench::dct_butterfly(8)});
  fam.push_back({"dct16", bench::dct_butterfly(16)});
  for (auto& [name, input] : fam) {
    Netlist a = input.clone();
    Netlist b = input.clone();
    RewriteOptions ro;
    RewriteResult ra = rewrite_datapath(a, ro);
    ro.verify_full = true;
    RewriteResult rb = rewrite_datapath(b, ro);
    EXPECT_EQ(structural_hash(a), structural_hash(b)) << name;
    EXPECT_EQ(ra.kept, rb.kept) << name;
    EXPECT_EQ(ra.reverted, rb.reverted) << name;
    EXPECT_EQ(ra.stale, rb.stale) << name;
    EXPECT_EQ(ra.candidates_seen, rb.candidates_seen) << name;
    EXPECT_EQ(ra.candidates_scored, rb.candidates_scored) << name;
    EXPECT_EQ(ra.unsound, 0u) << name;
    EXPECT_EQ(rb.unsound, 0u) << name;
    // Bitwise: the same keeps in the same order end on the same estimate.
    EXPECT_EQ(ra.power_after_w, rb.power_after_w) << name;
  }
}

// ---- resynthesis identity -------------------------------------------------

TEST(SpeculateResynth, ResultsIdenticalAcrossWorkerCounts) {
  std::vector<bench::NamedNetlist> fam;
  fam.push_back({"alu4", bench::alu(4)});
  fam.push_back({"dct8", bench::dct_butterfly(8)});
  for (auto& [name, input] : fam) {
    auto st = sim::measure_activity(input, 64, 5);
    logicopt::ResynthOptions o1;
    o1.workers = 1;
    Netlist base = input.clone();
    auto r1 = logicopt::resynthesize_windows(base, st.transition_prob, o1);
    EXPECT_EQ(r1.speculated_batches, 0u) << name;
    for (int w : {2, 4, 8}) {
      Netlist net = input.clone();
      logicopt::ResynthOptions ow;
      ow.workers = w;
      auto rw = logicopt::resynthesize_windows(net, st.transition_prob, ow);
      EXPECT_EQ(structural_hash(net), structural_hash(base))
          << name << " workers=" << w;
      EXPECT_EQ(rw.nodes_rewritten, r1.nodes_rewritten)
          << name << " workers=" << w;
      EXPECT_EQ(rw.windows_examined, r1.windows_examined)
          << name << " workers=" << w;
      EXPECT_EQ(rw.windows_capped, r1.windows_capped)
          << name << " workers=" << w;
      EXPECT_EQ(rw.rescored, r1.rescored) << name << " workers=" << w;
      EXPECT_EQ(rw.gates_after, r1.gates_after) << name << " workers=" << w;
      EXPECT_EQ(rw.workers_used, w) << name;
      if (rw.windows_examined > 0) {
        EXPECT_GT(rw.speculated_batches, 0u) << name << " workers=" << w;
      }
      EXPECT_GE(rw.spec_conflicts, rw.spec_rescored)
          << name << " workers=" << w;
      // Still functionally the same circuit.
      EXPECT_TRUE(sim::equivalent_random(input, net, 128, 77))
          << name << " workers=" << w;
    }
  }
}

// ---- flow plumbing --------------------------------------------------------

TEST(SpeculateFlow, OptWorkersThreadsThroughTheCombinationalFlow) {
  Netlist input = bench::dct_butterfly(8);
  core::FlowOptions o1;
  o1.estimate_mode = power::ActivityMode::ZeroDelay;
  o1.opt_workers = 1;
  auto r1 = core::optimize_combinational(input, o1);
  core::FlowOptions o4 = o1;
  o4.opt_workers = 4;
  core::metrics::reset();
  auto r4 = core::optimize_combinational(input, o4);
  double speculated_full = core::metrics::value("logicopt.spec.speculated");
  EXPECT_EQ(structural_hash(r1.circuit), structural_hash(r4.circuit));
  ASSERT_EQ(r1.stages.size(), r4.stages.size());
  for (std::size_t i = 0; i < r1.stages.size(); ++i)
    EXPECT_EQ(r1.stages[i].status, r4.stages[i].status) << i;

  // Only window resynthesis speculates: the same flow stopped right after
  // the resynth stage speculates exactly as many candidates, so the
  // datapath stage (and everything after it) speculates none.
  core::FlowOptions upto_resynth = o4;
  upto_resynth.run_datapath = false;
  upto_resynth.run_bdd_synth = false;
  upto_resynth.run_balance = false;
  upto_resynth.run_sizing = false;
  core::metrics::reset();
  (void)core::optimize_combinational(input, upto_resynth);
  double speculated_resynth =
      core::metrics::value("logicopt.spec.speculated");
  EXPECT_GT(speculated_resynth, 0.0);
  EXPECT_EQ(speculated_full, speculated_resynth);
}

}  // namespace
