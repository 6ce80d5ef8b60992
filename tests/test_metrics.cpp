// Metrics registry tests: counters, gauges, stage traces, timers, JSON.
//
// The registry is process-global, so every test starts from metrics::reset()
// and only asserts on names it owns.

#include <gtest/gtest.h>

#include <string>

#include "core/metrics.hpp"

namespace lps::core::metrics {
namespace {

TEST(Metrics, CountersAccumulateAndDefaultToZero) {
  reset();
  EXPECT_EQ(value("t.never_touched"), 0.0);
  count("t.counter");
  count("t.counter", 2.5);
  EXPECT_DOUBLE_EQ(value("t.counter"), 3.5);
  auto snap = Registry::global().counters();
  ASSERT_EQ(snap.count("t.counter"), 1u);
  EXPECT_DOUBLE_EQ(snap.at("t.counter"), 3.5);
  // An untouched counter is not materialized by reading it.
  EXPECT_EQ(snap.count("t.never_touched"), 0u);
}

TEST(Metrics, GaugeOverwritesInsteadOfAccumulating) {
  reset();
  gauge("t.gauge", 7.0);
  gauge("t.gauge", 2.0);
  EXPECT_DOUBLE_EQ(value("t.gauge"), 2.0);
  count("t.gauge", 1.0);  // counters and gauges share the namespace
  EXPECT_DOUBLE_EQ(value("t.gauge"), 3.0);
}

TEST(Metrics, GaugeMaxKeepsTheHighWaterMark) {
  reset();
  gauge_max("t.peak", 10.0);
  gauge_max("t.peak", 20.0);
  gauge_max("t.peak", 5.0);
  EXPECT_DOUBLE_EQ(value("t.peak"), 20.0);
  gauge_max("t.negative", -3.0);  // created at the first value, not at 0
  EXPECT_DOUBLE_EQ(value("t.negative"), -3.0);
}

TEST(Metrics, RecordStageKeepsOrderAndFeedsTimeCounter) {
  reset();
  Registry::global().record_stage("strash", 1.5);
  Registry::global().record_stage("balance", 0.5);
  Registry::global().record_stage("strash", 2.0);
  auto stages = Registry::global().stages();
  ASSERT_EQ(stages.size(), 3u);
  EXPECT_EQ(stages[0].name, "strash");
  EXPECT_EQ(stages[1].name, "balance");
  EXPECT_EQ(stages[2].name, "strash");
  EXPECT_DOUBLE_EQ(stages[2].wall_ms, 2.0);
  EXPECT_DOUBLE_EQ(value("time_ms.strash"), 3.5);
  EXPECT_DOUBLE_EQ(value("time_ms.balance"), 0.5);
}

TEST(Metrics, ScopedTimerPublishesOnDestruction) {
  reset();
  {
    ScopedTimer t("t.region", /*trace=*/true);
  }
  auto snap = Registry::global().counters();
  ASSERT_EQ(snap.count("time_ms.t.region"), 1u);
  EXPECT_GE(snap.at("time_ms.t.region"), 0.0);
  auto stages = Registry::global().stages();
  ASSERT_EQ(stages.size(), 1u);
  EXPECT_EQ(stages[0].name, "t.region");
}

TEST(Metrics, ScopedTimerWithoutTraceSkipsStageList) {
  reset();
  {
    ScopedTimer t("t.quiet");
  }
  EXPECT_EQ(Registry::global().counters().count("time_ms.t.quiet"), 1u);
  EXPECT_TRUE(Registry::global().stages().empty());
}

TEST(Metrics, ToJsonCarriesCountersAndStages) {
  reset();
  count("t.alpha", 2.0);
  std::string no_stages = Registry::global().to_json();
  EXPECT_NE(no_stages.find("\"counters\""), std::string::npos);
  EXPECT_NE(no_stages.find("\"t.alpha\""), std::string::npos);
  EXPECT_EQ(no_stages.find("\"stages\""), std::string::npos);

  Registry::global().record_stage("strash", 1.25);
  std::string with_stages = Registry::global().to_json();
  EXPECT_NE(with_stages.find("\"stages\""), std::string::npos);
  EXPECT_NE(with_stages.find("\"strash\""), std::string::npos);
  EXPECT_NE(with_stages.find("\"wall_ms\""), std::string::npos);
}

TEST(Metrics, ResetClearsEverything) {
  reset();
  count("t.x", 4.0);
  Registry::global().record_stage("s", 1.0);
  reset();
  EXPECT_EQ(value("t.x"), 0.0);
  EXPECT_TRUE(Registry::global().counters().empty());
  EXPECT_TRUE(Registry::global().stages().empty());
}

}  // namespace
}  // namespace lps::core::metrics
