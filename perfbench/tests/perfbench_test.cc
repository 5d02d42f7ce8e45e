// Tests of the benchmark's own logic: the percentile support rule, self
// time under overlapping children, the sustained-rate choice on a rate
// ladder, and failure accounting.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "spans.h"
#include "stats.h"

namespace perfbench {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::vector<double> Iota(size_t n) {
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
  return v;
}

TEST(PercentileTest, NearestRank) {
  const std::vector<double> v = Iota(100);
  EXPECT_EQ(Percentile(v, 0.5), 50.0);
  EXPECT_EQ(Percentile(v, 0.99), 99.0);
  EXPECT_EQ(Percentile(v, 1.0), 100.0);
  EXPECT_EQ(Percentile({}, 0.5), 0.0);
  EXPECT_EQ(Percentile({7.0}, 0.99), 7.0);
}

TEST(PercentileTest, FailedSamplesSortLastAndReadInfinite) {
  std::vector<double> v = Iota(98);
  v.push_back(kInf);
  v.push_back(kInf);
  EXPECT_EQ(Percentile(v, 0.98), 98.0);
  EXPECT_TRUE(std::isinf(Percentile(v, 0.99)));
}

TEST(PercentileRuleTest, TenSamplesBeyond) {
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10u);
  EXPECT_TRUE(Supported(1000, 0.99));
  EXPECT_EQ(SamplesBeyond(999, 0.99), 9u);
  EXPECT_FALSE(Supported(999, 0.99));
  EXPECT_TRUE(Supported(20, 0.5));
  EXPECT_FALSE(Supported(19, 0.5));
}

TEST(PercentileRuleTest, HighestSupportedPercentile) {
  EXPECT_EQ(HighestSupportedPercentile(19), 0.0);
  EXPECT_EQ(HighestSupportedPercentile(20), 0.5);
  EXPECT_EQ(HighestSupportedPercentile(99), 0.5);
  EXPECT_EQ(HighestSupportedPercentile(100), 0.9);
  EXPECT_EQ(HighestSupportedPercentile(999), 0.9);
  EXPECT_EQ(HighestSupportedPercentile(1000), 0.99);
  EXPECT_EQ(HighestSupportedPercentile(10000), 0.999);
  EXPECT_EQ(HighestSupportedPercentile(100000), 0.9999);
}

TEST(MedianTest, OddEvenAndEmpty) {
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(Median({}), 0.0);
}

TEST(SelfTimeTest, NoChildren) { EXPECT_EQ(SelfTimeNs(0, 100, {}), 100); }

TEST(SelfTimeTest, DisjointChildren) {
  EXPECT_EQ(SelfTimeNs(0, 100, {{10, 20}, {50, 80}}), 60);
}

TEST(SelfTimeTest, OverlappingChildrenCountOnce) {
  // [10, 40) and [30, 60) cover [10, 60): 50 ns; a nested [15, 25) adds
  // nothing.
  EXPECT_EQ(SelfTimeNs(0, 100, {{30, 60}, {10, 40}, {15, 25}}), 50);
}

TEST(SelfTimeTest, ChildrenClippedToParent) {
  EXPECT_EQ(SelfTimeNs(100, 200, {{50, 150}, {180, 300}}), 30);
  EXPECT_EQ(SelfTimeNs(100, 200, {{0, 50}, {250, 300}}), 100);
  EXPECT_EQ(SelfTimeNs(100, 200, {{0, 500}}), 0);
}

TEST(SpanRecorderTest, SelfTimesByName) {
  SpanRecorder rec;
  const uint32_t req = rec.Intern("request");
  const uint32_t queue = rec.Intern("queue");
  const uint32_t service = rec.Intern("service");
  EXPECT_EQ(rec.Intern("queue"), queue);
  const int32_t root = rec.Record(req, 0, 100, -1, 7);
  rec.Record(queue, 0, 60, root, 7);
  rec.Record(service, 50, 90, root, 7);  // overlaps queue by 10
  const auto by_name = rec.ByName();
  EXPECT_EQ(by_name.at("request").self_ns, 10);
  EXPECT_EQ(by_name.at("queue").self_ns, 60);
  EXPECT_EQ(by_name.at("service").total_ns, 40);
  EXPECT_EQ(rec.spans()[1].request_id, 7u);
}

TEST(PathSumTest, WithinOverheadPlusTolerance) {
  EXPECT_TRUE(PathSumAddsUp(1.0, 0.0, 0.05));
  EXPECT_TRUE(PathSumAddsUp(1.12, 0.10, 0.05));
  EXPECT_TRUE(PathSumAddsUp(0.96, -0.02, 0.05));
  // A path that misses a fifth of the end-to-end time, or counts it
  // twice, fails however small the overhead.
  EXPECT_FALSE(PathSumAddsUp(0.80, 0.02, 0.05));
  EXPECT_FALSE(PathSumAddsUp(2.0, 0.02, 0.05));
  EXPECT_FALSE(PathSumAddsUp(std::nan(""), 0.02, 0.05));
}

TEST(TallyTest, FailuresCountAgainstAttempted) {
  Tally t;
  t.attempted = 200;
  t.shed = 3;
  t.rejected = 1;
  t.degraded = 6;
  t.answered = 190;
  t.covered = 171;
  EXPECT_EQ(t.failed(), 4u);
  EXPECT_DOUBLE_EQ(t.failed_fraction(), 0.02);
  // Coverage ignores shed and degraded requests.
  EXPECT_DOUBLE_EQ(t.coverage_answered(), 0.9);
  Tally u = t;
  u.Add(t);
  EXPECT_EQ(u.attempted, 400u);
  EXPECT_EQ(u.failed(), 8u);
  EXPECT_DOUBLE_EQ(u.coverage_answered(), 0.9);
  EXPECT_EQ(Tally{}.failed_fraction(), 0.0);
  EXPECT_EQ(Tally{}.coverage_answered(), 0.0);
}

TEST(BacklogTest, SteadyTransientAndGrowing) {
  const std::vector<double> steady(40, 50.0);
  EXPECT_FALSE(BacklogGrows(steady, 1.5, 64.0));
  // One transient spike at the end is not growth.
  std::vector<double> spike = steady;
  spike.back() = 5000.0;
  EXPECT_FALSE(BacklogGrows(spike, 1.5, 64.0));
  std::vector<double> growing;
  for (int i = 0; i < 40; ++i) growing.push_back(50.0 + 40.0 * i);
  EXPECT_TRUE(BacklogGrows(growing, 1.5, 64.0));
  EXPECT_FALSE(BacklogGrows({1.0, 1e6, 1e6}, 1.5, 64.0));  // too few
}

TEST(WindowsTest, StallsLatenessAndFailuresFailTheirWindowOnly) {
  LadderRule rule;
  std::vector<double> lat(5000, 100.0);
  const std::vector<double> on_time(5000, 1.0);
  EXPECT_EQ(WindowsWithinLimit(lat, on_time, rule), 5);
  for (size_t i = 1000; i < 1100; ++i) lat[i] = 5000.0;  // window 1 stalls
  EXPECT_EQ(WindowsWithinLimit(lat, on_time, rule), 4);
  // Window 2 sheds exactly 1% (within the rule), then one more (not).
  for (size_t i = 2000; i < 2010; ++i) lat[i] = kInf;
  EXPECT_EQ(WindowsWithinLimit(lat, on_time, rule), 4);
  lat[2010] = kInf;
  EXPECT_EQ(WindowsWithinLimit(lat, on_time, rule), 3);
  // Window 4's generator ran late for more than a tenth of its sends.
  std::vector<double> late = on_time;
  for (size_t i = 4000; i < 4150; ++i) late[i] = 500.0;
  EXPECT_EQ(WindowsWithinLimit(lat, late, rule), 2);
}

RungResult Rung(double qps, int within, bool grows = false) {
  RungResult r;
  r.offered_qps = qps;
  r.achieved_qps = qps * 0.999;
  r.p99_us = 200.0;
  r.attempted = 10000;
  r.windows_within_limit = within;
  r.backlog_grows = grows;
  return r;
}

// Runs a climb whose rungs return `outcomes` in order (windows within
// the limit; a negative count marks a growing backlog with 5 windows).
double ClimbOver(const std::vector<int>& outcomes, std::vector<double>* ran) {
  size_t next = 0;
  LadderRule rule;
  return Climb({1e5, 2e5, 3e5, 4e5, 5e5},
               [&](double qps) {
                 ran->push_back(qps);
                 const int o = next < outcomes.size() ? outcomes[next] : 0;
                 ++next;
                 return o < 0 ? Rung(qps, 5, /*grows=*/true) : Rung(qps, o);
               },
               rule);
}

TEST(LadderTest, HighestPassingRungBeforeRepeatedFailure) {
  std::vector<double> ran;
  // 4e5 fails twice: the climb ends at 3e5 and never tries 5e5.
  EXPECT_DOUBLE_EQ(ClimbOver({5, 4, 2, 1, 0}, &ran), 3e5 * 0.999);
  EXPECT_EQ(ran, (std::vector<double>{1e5, 2e5, 3e5, 4e5, 4e5}));
}

TEST(LadderTest, OneTransientFailureIsRetried) {
  std::vector<double> ran;
  // 2e5 fails once (a stall) and passes its retry; 5e5 fails twice.
  EXPECT_DOUBLE_EQ(ClimbOver({5, 1, 5, 5, 5, 0, 1}, &ran), 4e5 * 0.999);
  EXPECT_EQ(ran,
            (std::vector<double>{1e5, 2e5, 2e5, 3e5, 4e5, 5e5, 5e5}));
}

TEST(LadderTest, LowestRungFailingTwiceSustainsNothing) {
  std::vector<double> ran;
  EXPECT_DOUBLE_EQ(ClimbOver({0, 0}, &ran), 0.0);
  EXPECT_EQ(ran.size(), 2u);
}

TEST(LadderTest, GrowingBacklogFailsTheRung) {
  LadderRule rule;
  EXPECT_TRUE(RungPasses(Rung(1e5, 5), rule));
  EXPECT_FALSE(RungPasses(Rung(2e5, 5, /*grows=*/true), rule));
  // Every window within the limit, but the backlog grows in both runs.
  std::vector<double> ran;
  EXPECT_DOUBLE_EQ(ClimbOver({5, -1, -1}, &ran), 1e5 * 0.999);
}

TEST(LadderTest, OverloadFailsEveryWindowAndTheRung) {
  // A queue that grows through the rung: latency climbs past the limit
  // early and sheds follow, in every window after the first.
  LadderRule rule;
  std::vector<double> lat, lateness(10000, 1.0);
  for (size_t i = 0; i < 10000; ++i) {
    lat.push_back(i < 8500 ? 100.0 + 2.0 * static_cast<double>(i) : kInf);
  }
  RungResult rung = Rung(1e6, WindowsWithinLimit(lat, lateness, rule));
  EXPECT_EQ(rung.windows_within_limit, 0);
  EXPECT_FALSE(RungPasses(rung, rule));
  RungResult empty = Rung(1e5, 5);
  empty.attempted = 0;
  EXPECT_FALSE(RungPasses(empty, rule));
}

}  // namespace
}  // namespace perfbench
