// test_parallel.cpp — thread pool, deterministic sharding, and the
// undo-log rollback path.
//
// The determinism contract (core/parallel.hpp) promises bit-identical
// Monte Carlo results at any thread count; these tests pin that with exact
// floating-point equality across 1/2/4/8 threads on the benchmark suite.
// The undo-log tests pin the other tentpole invariant: rollback_undo()
// restores the exact pre-begin state, including under fault injection and
// wholesale replacement (net = strash(net)), matching the legacy
// full-snapshot path bit for bit.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include "core/parallel.hpp"
#include "core/pass.hpp"
#include "netlist/benchmarks.hpp"
#include "netlist/faultinject.hpp"
#include "sim/eventsim.hpp"
#include "sim/logicsim.hpp"

namespace {

using namespace lps;

std::string dump(const Netlist& net) {
  std::ostringstream os;
  os << net;
  os << "PIs:";
  for (NodeId i : net.inputs()) os << ' ' << i;
  os << "\nPOs:";
  for (std::size_t i = 0; i < net.outputs().size(); ++i)
    os << ' ' << net.outputs()[i] << '=' << net.output_names()[i];
  os << '\n';
  return os.str();
}

// ---- thread pool ----------------------------------------------------------

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  core::ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.for_each_index(1000, [&](std::size_t i) { hits[i]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, PropagatesFirstException) {
  core::ThreadPool pool(2);
  EXPECT_THROW(pool.for_each_index(64,
                                   [&](std::size_t i) {
                                     if (i == 17)
                                       throw std::runtime_error("boom");
                                   }),
               std::runtime_error);
  // Pool is still usable after a failed job.
  std::atomic<int> n{0};
  pool.for_each_index(8, [&](std::size_t) { n++; });
  EXPECT_EQ(n.load(), 8);
}

TEST(ThreadPool, ZeroWorkersRunsInline) {
  core::ThreadPool pool(0);
  std::atomic<int> n{0};
  pool.for_each_index(10, [&](std::size_t) { n++; });
  EXPECT_EQ(n.load(), 10);
}

TEST(ParallelFor, RespectsScopedThreadOverride) {
  core::ScopedThreads guard(4);
  EXPECT_EQ(core::num_threads(), 4u);
  std::vector<std::atomic<int>> hits(200);
  core::parallel_for(200, [&](std::size_t i) { hits[i]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EnvIsSampledOnceAndSetNumThreadsWins) {
  // Caching contract (core/parallel.hpp): LPS_THREADS is read exactly once,
  // on the first num_threads() call in the process; later env edits are
  // invisible and set_num_threads() is the only runtime override.
  unsigned before = core::num_threads();  // forces the one-time env sample
  ::setenv("LPS_THREADS", "61", /*overwrite=*/1);
  EXPECT_EQ(core::num_threads(), before);
  core::set_num_threads(3);
  EXPECT_EQ(core::num_threads(), 3u);
  {
    core::ScopedThreads guard(5);
    EXPECT_EQ(core::num_threads(), 5u);
  }
  EXPECT_EQ(core::num_threads(), 3u);  // ScopedThreads restored its prev
  ::unsetenv("LPS_THREADS");
  EXPECT_EQ(core::num_threads(), 3u);  // still cached, not re-read
  core::set_num_threads(before);
}

// ---- shard planning -------------------------------------------------------

TEST(ShardPlan, CoversTotalWithoutOverlap) {
  for (std::size_t total : {0u, 1u, 63u, 64u, 65u, 1000u, 4096u, 100000u}) {
    auto plan = core::plan_shards(total, 64);
    EXPECT_GE(plan.shards, 1u);
    EXPECT_LE(plan.shards, 64u);
    std::size_t sum = 0;
    for (std::size_t s = 0; s < plan.shards; ++s) {
      EXPECT_EQ(plan.begin(s), sum);
      sum += plan.count(s);
    }
    EXPECT_EQ(sum, total == 0 ? plan.count(0) : total);
    if (total < 2 * 64) {
      EXPECT_EQ(plan.shards, 1u);
    }
  }
}

TEST(ShardPlan, SeedsAreDistinctAndThreadIndependent) {
  EXPECT_NE(core::shard_seed(3, 0), core::shard_seed(3, 1));
  EXPECT_NE(core::shard_seed(3, 0), core::shard_seed(4, 0));
  EXPECT_EQ(core::shard_seed(3, 7), core::shard_seed(3, 7));
}

// ---- parallel determinism -------------------------------------------------

TEST(ParallelDeterminism, ActivityStatsBitIdenticalAcrossThreadCounts) {
  for (const auto& [name, net] : bench::default_suite()) {
    sim::ActivityStats ref;
    {
      core::ScopedThreads guard(1);
      ref = sim::measure_activity(net, 512, 42);
    }
    for (unsigned t : {2u, 4u, 8u}) {
      core::ScopedThreads guard(t);
      auto st = sim::measure_activity(net, 512, 42);
      ASSERT_EQ(st.patterns, ref.patterns) << name << " @" << t;
      ASSERT_EQ(st.signal_prob.size(), ref.signal_prob.size());
      for (std::size_t i = 0; i < ref.signal_prob.size(); ++i) {
        // Exact equality on purpose: merging integer counters in shard
        // order must make the result independent of the thread count.
        ASSERT_EQ(st.signal_prob[i], ref.signal_prob[i])
            << name << " node " << i << " @" << t << " threads";
        ASSERT_EQ(st.transition_prob[i], ref.transition_prob[i])
            << name << " node " << i << " @" << t << " threads";
      }
    }
  }
}

TEST(ParallelDeterminism, TimedStatsBitIdenticalAcrossThreadCounts) {
  for (const auto& [name, net] : bench::default_suite()) {
    sim::TimedStats ref;
    {
      core::ScopedThreads guard(1);
      ref = sim::measure_timed_activity(net, 512, 42);
    }
    for (unsigned t : {2u, 4u, 8u}) {
      core::ScopedThreads guard(t);
      auto st = sim::measure_timed_activity(net, 512, 42);
      ASSERT_EQ(st.vectors, ref.vectors) << name << " @" << t;
      for (std::size_t i = 0; i < ref.total_toggles.size(); ++i) {
        ASSERT_EQ(st.total_toggles[i], ref.total_toggles[i])
            << name << " node " << i << " @" << t << " threads";
        ASSERT_EQ(st.functional_toggles[i], ref.functional_toggles[i])
            << name << " node " << i << " @" << t << " threads";
      }
    }
  }
}

TEST(ParallelDeterminism, SequentialNetKeepsLegacySerialStream) {
  // Sequential circuits must always run as one shard; any thread count
  // reproduces the single-trajectory result.
  auto net = bench::counter(8);
  core::ScopedThreads one(1);
  auto ref = sim::measure_activity(net, 256, 9);
  core::ScopedThreads eight(8);
  auto st = sim::measure_activity(net, 256, 9);
  for (std::size_t i = 0; i < ref.signal_prob.size(); ++i) {
    ASSERT_EQ(st.signal_prob[i], ref.signal_prob[i]);
    ASSERT_EQ(st.transition_prob[i], ref.transition_prob[i]);
  }
}

// ---- functional trace -----------------------------------------------------

TEST(FunctionalTrace, MatchesOnEquivalentDiffersOnBroken) {
  auto net = bench::alu(4);
  auto t1 = sim::functional_trace(net, 128, 5);
  auto hashed = strash(net);
  auto t2 = sim::functional_trace(hashed, 128, 5);
  EXPECT_EQ(t1, t2);

  auto broken = net.clone();
  auto inj = fault::inject(broken, fault::Fault::FlipGateFunction, 3);
  ASSERT_TRUE(inj.applied);
  auto t3 = sim::functional_trace(broken, 128, 5);
  EXPECT_NE(t1, t3);
}

// ---- undo log -------------------------------------------------------------

TEST(UndoLog, RollbackRestoresExactStateAfterIncrementalEdits) {
  auto net = bench::ripple_carry_adder(8);
  std::string before = dump(net);
  net.begin_undo();
  // Mix of journal entry kinds: node field edits, new gates, PO changes.
  NodeId a = net.inputs()[0], b = net.inputs()[1];
  NodeId g = net.add_and(a, b);
  net.add_output(g, "extra");
  net.node(net.outputs()[0]).delay = 17;
  net.node(net.outputs()[0]).size = 4.0;
  net.replace_fanin(g, 1, a);
  EXPECT_GT(net.undo_entries(), 0u);
  net.rollback_undo();
  EXPECT_EQ(dump(net), before);
  EXPECT_FALSE(net.undo_active());
  EXPECT_TRUE(net.check().empty());
}

TEST(UndoLog, RollbackRestoresAfterWholesaleReplacement) {
  auto net = bench::alu(4);
  std::string before = dump(net);
  net.begin_undo();
  net.node(net.outputs()[0]).delay = 3;  // incremental edit first
  net = strash(net);                     // wholesale replacement
  net.add_output(net.outputs()[0], "dup");
  net.rollback_undo();
  EXPECT_EQ(dump(net), before);
}

TEST(UndoLog, RollbackRestoresAfterCompact) {
  auto net = bench::alu(4);
  auto st = sim::measure_activity(net, 16, 7);
  (void)st;
  net.begin_undo();
  net.sweep();
  net.compact();
  std::string compacted = dump(net);
  net.rollback_undo();
  auto fresh = bench::alu(4);
  EXPECT_EQ(dump(net), dump(fresh));
  EXPECT_NE(dump(net), compacted);
}

TEST(UndoLog, CommitKeepsChanges) {
  auto net = bench::c17();
  net.begin_undo();
  NodeId g = net.add_nand(net.inputs()[0], net.inputs()[1]);
  net.add_output(g, "new_po");
  net.commit_undo();
  EXPECT_FALSE(net.undo_active());
  EXPECT_EQ(net.output_names().back(), "new_po");
}

TEST(UndoLog, CopiesDoNotCarryTheJournal) {
  auto net = bench::c17();
  net.begin_undo();
  net.node(net.outputs()[0]).delay = 9;
  Netlist copy = net.clone();
  EXPECT_TRUE(net.undo_active());
  EXPECT_FALSE(copy.undo_active());
  net.rollback_undo();
  EXPECT_EQ(copy.node(copy.outputs()[0]).delay, 9);
}

// The equivalence the transform guard (PassManager, flow stages) rests
// on: rolling back via the undo log lands on the identical netlist as a
// clone pre-image — for every fault class the injection harness can
// produce.
TEST(UndoLog, MatchesSnapshotRollbackUnderFaultInjection) {
  for (fault::Fault f : fault::all_faults()) {
    for (std::uint64_t seed : {1ull, 2ull, 5ull}) {
      auto net = bench::alu(4);
      Netlist snapshot = net.clone();  // reference pre-image
      net.begin_undo();
      auto inj = fault::inject(net, f, seed);
      net.rollback_undo();
      EXPECT_EQ(dump(net), dump(snapshot))
          << "fault " << fault::to_string(f) << " seed " << seed
          << (inj.applied ? " (applied: " + inj.description + ")"
                          : " (not applied)");
      EXPECT_TRUE(net.check().empty());
    }
  }
}

}  // namespace
