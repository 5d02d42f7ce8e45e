// The guarded serving path: sanitization of insane primary outputs,
// retry-then-fallback, the circuit breaker's trip/cooldown/probe cycle
// (per query and batch-granular), invalid-query quarantine, the
// fallback-only tier, batch-vs-loop equality under injected faults, and
// the faults-off bit-identity contract against the raw primary.
#include "ce/guarded.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "ce/histogram.h"
#include "ce/lwnn.h"
#include "ce/mscn.h"
#include "common/fault.h"
#include "data/generators.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "query/workload.h"

namespace confcard {
namespace {

struct Fixture {
  Table table;
  Workload workload;
};

Fixture MakeFixture(size_t num_queries = 20) {
  TableSpec spec;
  spec.name = "g";
  spec.num_rows = 1500;
  spec.seed = 19;
  ColumnSpec a;
  a.name = "a";
  a.domain_size = 5;
  ColumnSpec b;
  b.name = "b";
  b.kind = ColumnKind::kNumeric;
  b.num_min = 0.0;
  b.num_max = 30.0;
  spec.columns = {a, b};
  Table table = GenerateTable(spec).value();

  WorkloadConfig wc;
  wc.num_queries = num_queries;
  wc.seed = 5;
  Workload wl = GenerateWorkload(table, wc).value();
  return {std::move(table), std::move(wl)};
}

// A primary whose answers are scripted per call: the value at the call
// ordinal is returned (the last entry repeats forever). Lets tests
// produce NaN on attempt 0 and a healthy value on the retry, flip a
// failing primary healthy mid-test, and count exactly how many times
// the guard consulted it.
class ScriptedEstimator : public CardinalityEstimator {
 public:
  explicit ScriptedEstimator(std::vector<double> script)
      : script_(std::move(script)) {}

  std::string name() const override { return "scripted"; }

  double EstimateCardinality(const Query&) const override {
    const size_t i = calls_++;
    return script_[i < script_.size() ? i : script_.size() - 1];
  }

  int calls() const { return static_cast<int>(calls_); }
  void Reset(std::vector<double> script) {
    script_ = std::move(script);
    calls_ = 0;
  }

 private:
  mutable std::vector<double> script_;
  mutable size_t calls_ = 0;
};

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

std::vector<Query> QueriesOf(const Workload& wl) {
  std::vector<Query> queries;
  for (const LabeledQuery& lq : wl) queries.push_back(lq.query);
  return queries;
}

// Every ce.guard.* and fault.injected.* counter, by name.
std::map<std::string, uint64_t> GuardCounters() {
  std::map<std::string, uint64_t> out;
  for (const auto& [name, value] : obs::Metrics().TakeSnapshot().counters) {
    if (name.rfind("ce.guard.", 0) == 0 ||
        name.rfind("fault.injected.", 0) == 0) {
      out[name] = value;
    }
  }
  return out;
}

std::map<std::string, uint64_t> CounterDelta(
    const std::map<std::string, uint64_t>& before,
    const std::map<std::string, uint64_t>& after) {
  std::map<std::string, uint64_t> delta;
  for (const auto& [name, value] : after) {
    const auto it = before.find(name);
    delta[name] = value - (it == before.end() ? 0 : it->second);
  }
  return delta;
}

// Runs `body` with the event log armed and returns the records it left,
// in file order.
template <typename Body>
std::vector<std::string> RecordsOf(const std::string& file, Body&& body) {
  const std::string path = ::testing::TempDir() + "/" + file;
  obs::EventLog& elog = obs::EventLog::Instance();
  EXPECT_TRUE(elog.OpenForTest(path).ok());
  body();
  elog.CloseForTest();
  std::vector<std::string> lines;
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  std::remove(path.c_str());
  return lines;
}

TEST(GuardedTest, SanitizesNanInfAndNegativeToFallback) {
  Fixture f = MakeFixture();
  const Query& q = f.workload[0].query;
  GuardOptions opts;
  opts.max_retries = 0;
  opts.breaker_threshold = 0;  // isolate sanitization from the breaker
  for (double bad : {kNan, kInf, -3.0}) {
    ScriptedEstimator primary({bad});
    GuardedEstimator guard(primary, f.table, opts);
    const GuardedEstimate got = guard.EstimateGuarded(q);
    EXPECT_TRUE(got.degraded);
    EXPECT_EQ(got.source, 1);  // terminal histogram: no other fallbacks
    EXPECT_TRUE(std::isfinite(got.value));
    EXPECT_GE(got.value, 0.0);
    EXPECT_EQ(primary.calls(), 1);
  }
}

TEST(GuardedTest, RetryRecoversWithoutDegrading) {
  Fixture f = MakeFixture();
  ScriptedEstimator primary({kNan, 123.0});
  GuardOptions opts;
  opts.max_retries = 1;
  GuardedEstimator guard(primary, f.table, opts);
  const GuardedEstimate got = guard.EstimateGuarded(f.workload[0].query);
  EXPECT_FALSE(got.degraded);
  EXPECT_EQ(got.source, 0);
  EXPECT_EQ(got.value, 123.0);
  EXPECT_EQ(primary.calls(), 2);
  EXPECT_FALSE(guard.breaker_open());
}

TEST(GuardedTest, FallbackChainPrefersInsertionOrder) {
  Fixture f = MakeFixture();
  ScriptedEstimator primary({kNan});
  ScriptedEstimator broken_fallback({-1.0});  // insane too: skipped
  ScriptedEstimator good_fallback({77.0});
  GuardOptions opts;
  opts.max_retries = 0;
  GuardedEstimator guard(primary, f.table, opts);
  guard.AddFallback(broken_fallback);
  guard.AddFallback(good_fallback);
  const GuardedEstimate got = guard.EstimateGuarded(f.workload[0].query);
  EXPECT_TRUE(got.degraded);
  EXPECT_EQ(got.source, 2);  // second registered fallback
  EXPECT_EQ(got.value, 77.0);
  EXPECT_EQ(broken_fallback.calls(), 1);
}

TEST(GuardedTest, InvalidQueryIsQuarantinedWithoutRunningAnyEstimator) {
  Fixture f = MakeFixture();
  ScriptedEstimator primary({50.0});
  GuardedEstimator guard(primary, f.table);
  // Column 9 does not exist in the 2-column table.
  const Query bad{{Predicate::Between(9, 0.0, 1.0)}};
  const GuardedEstimate got = guard.EstimateGuarded(bad);
  EXPECT_TRUE(got.degraded);
  EXPECT_EQ(got.source, -1);
  EXPECT_EQ(got.value, 0.0);
  EXPECT_EQ(primary.calls(), 0);
}

TEST(GuardedTest, BreakerTripsCoolsDownAndRecovers) {
  Fixture f = MakeFixture();
  const Query& q = f.workload[0].query;
  ScriptedEstimator primary({kNan});
  GuardOptions opts;
  opts.max_retries = 0;
  opts.breaker_threshold = 3;
  opts.breaker_cooldown = 2;
  GuardedEstimator guard(primary, f.table, opts);

  // Three consecutive failures trip the breaker.
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(guard.EstimateGuarded(q).degraded);
  }
  EXPECT_TRUE(guard.breaker_open());
  EXPECT_EQ(primary.calls(), 3);

  // During cooldown the primary is not consulted at all.
  for (int i = 0; i < 2; ++i) {
    const GuardedEstimate got = guard.EstimateGuarded(q);
    EXPECT_TRUE(got.degraded);
    EXPECT_EQ(got.source, 1);
  }
  EXPECT_EQ(primary.calls(), 3);

  // Cooldown expired: the next query probes the (still broken) primary,
  // which fails and restarts the cooldown.
  EXPECT_TRUE(guard.EstimateGuarded(q).degraded);
  EXPECT_EQ(primary.calls(), 4);
  EXPECT_TRUE(guard.breaker_open());

  // Primary heals. The breaker still serves fallback until the fresh
  // cooldown drains...
  primary.Reset({42.0});
  for (int i = 0; i < 2; ++i) {
    EXPECT_TRUE(guard.EstimateGuarded(q).degraded);
  }
  EXPECT_EQ(primary.calls(), 0);

  // ...then a healthy probe closes it and service resumes on the
  // primary.
  const GuardedEstimate probe = guard.EstimateGuarded(q);
  EXPECT_FALSE(probe.degraded);
  EXPECT_EQ(probe.value, 42.0);
  EXPECT_FALSE(guard.breaker_open());
  const GuardedEstimate after = guard.EstimateGuarded(q);
  EXPECT_EQ(after.source, 0);
  EXPECT_EQ(primary.calls(), 2);
}

// Faults keyed per query by content make the batched tier walk see the
// injection decisions a per-query loop sees, at every tier: attempt 0,
// the salted retry, and a fault-injected fallback ahead of the terminal
// histogram. Breaker off, so admission cannot differ either.
TEST(GuardedTest, BatchEqualsLoopOfEstimateGuardedUnderFaults) {
  Fixture f = MakeFixture(/*num_queries=*/160);
  LwnnEstimator::Options lo;
  lo.epochs = 2;
  lo.hidden1 = 16;
  lo.hidden2 = 8;
  LwnnEstimator primary(lo);
  ASSERT_TRUE(primary.Train(f.table, f.workload).ok());
  MscnEstimator::Options mo;
  mo.model.epochs = 2;
  mo.model.set_hidden = 16;
  mo.model.final_hidden = 16;
  MscnEstimator fallback(mo);
  ASSERT_TRUE(fallback.Train(f.table, f.workload).ok());

  GuardOptions opts;
  opts.max_retries = 1;
  opts.breaker_threshold = 0;
  GuardedEstimator guard(primary, f.table, opts);
  guard.AddFallback(fallback);

  std::vector<Query> queries = QueriesOf(f.workload);
  queries.insert(queries.begin() + 7, Query{{Predicate::Between(9, 0.0, 1.0)}});
  queries.push_back(Query{{Predicate::Between(1, 5.0, 2.0)}});  // lo > hi
  const size_t n = queries.size();

  fault::Registry& reg = fault::Registry::Instance();
  ASSERT_TRUE(reg.ConfigureFromString("lwnn.forward:nan@0.3;"
                                      "lwnn.forward:fail@0.15;"
                                      "mscn.forward:nan@0.5")
                  .ok());
  std::vector<GuardedEstimate> loop(n);
  auto before = GuardCounters();
  const std::vector<std::string> loop_records =
      RecordsOf("guard_loop.jsonl", [&] {
        for (size_t i = 0; i < n; ++i) {
          loop[i] = guard.EstimateGuarded(queries[i]);
        }
      });
  const auto loop_delta = CounterDelta(before, GuardCounters());

  std::vector<GuardedEstimate> batch(n);
  before = GuardCounters();
  const std::vector<std::string> batch_records =
      RecordsOf("guard_batch.jsonl", [&] {
        guard.EstimateBatchGuarded(queries.data(), n, batch.data());
      });
  const auto batch_delta = CounterDelta(before, GuardCounters());
  reg.Clear();

  std::map<int, int> sources;
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(batch[i].value, loop[i].value) << "query " << i;
    ASSERT_EQ(batch[i].degraded, loop[i].degraded) << "query " << i;
    ASSERT_EQ(batch[i].source, loop[i].source) << "query " << i;
    ++sources[batch[i].source];
  }
  // Not vacuous: every tier answered something.
  EXPECT_EQ(sources[-1], 2);
  EXPECT_GT(sources[0], 0);
  EXPECT_GT(sources[1], 0);
  EXPECT_GT(sources[2], 0);
  EXPECT_GT(batch_delta.at("ce.guard.retry_success"), 0u);

  EXPECT_EQ(batch_delta, loop_delta);
  EXPECT_EQ(batch_delta.at("ce.guard.queries"), n);
  ASSERT_FALSE(batch_records.empty());
  EXPECT_EQ(batch_records, loop_records);
}

// Admission for a whole batch is decided before any of its outcomes is
// recorded: a trip, and a probe recovery, take effect from the next call.
TEST(GuardedTest, BreakerIsBatchGranular) {
  Fixture f = MakeFixture(/*num_queries=*/8);
  const std::vector<Query> queries = QueriesOf(f.workload);
  ASSERT_EQ(queries.size(), 8u);
  ScriptedEstimator primary({kNan});
  GuardOptions opts;
  opts.max_retries = 0;
  opts.breaker_threshold = 3;
  opts.breaker_cooldown = 10;
  GuardedEstimator guard(primary, f.table, opts);
  obs::Counter& trips = obs::Metrics().GetCounter("ce.guard.breaker_trips");
  obs::Counter& probes = obs::Metrics().GetCounter("ce.guard.breaker_probes");
  obs::Counter& recoveries =
      obs::Metrics().GetCounter("ce.guard.breaker_recoveries");
  const uint64_t trips0 = trips.value();
  const uint64_t probes0 = probes.value();
  const uint64_t recoveries0 = recoveries.value();

  // Eight failing queries: all were admitted, so all eight reach the
  // primary, and the third failure trips the breaker exactly once.
  std::vector<GuardedEstimate> out(8);
  guard.EstimateBatchGuarded(queries.data(), 8, out.data());
  EXPECT_EQ(primary.calls(), 8);
  EXPECT_EQ(trips.value() - trips0, 1u);
  EXPECT_TRUE(guard.breaker_open());
  for (const GuardedEstimate& g : out) EXPECT_EQ(g.source, 1);

  // The next batch is all fallback and burns 8 of the 10 cooldown ticks.
  primary.Reset({42.0});
  guard.EstimateBatchGuarded(queries.data(), 8, out.data());
  EXPECT_EQ(primary.calls(), 0);
  for (const GuardedEstimate& g : out) EXPECT_EQ(g.source, 1);

  // Ticks are consumed in index order: queries 0-1 take the last two,
  // query 2 is the probe, and query 3 waits behind the in-flight probe.
  std::vector<GuardedEstimate> four(4);
  guard.EstimateBatchGuarded(queries.data(), 4, four.data());
  EXPECT_EQ(primary.calls(), 1);
  EXPECT_EQ(probes.value() - probes0, 1u);
  EXPECT_EQ(four[0].source, 1);
  EXPECT_EQ(four[1].source, 1);
  EXPECT_EQ(four[2].source, 0);
  EXPECT_EQ(four[2].value, 42.0);
  EXPECT_EQ(four[3].source, 1);
  // The healthy probe closes the breaker once the call has recorded it.
  EXPECT_FALSE(guard.breaker_open());
  EXPECT_EQ(recoveries.value() - recoveries0, 1u);

  guard.EstimateBatchGuarded(queries.data(), 8, out.data());
  EXPECT_EQ(primary.calls(), 9);
  for (const GuardedEstimate& g : out) {
    EXPECT_EQ(g.source, 0);
    EXPECT_FALSE(g.degraded);
  }
  EXPECT_EQ(trips.value() - trips0, 1u);

  // Only the probe closes an open breaker: a query admitted before the
  // trip answers healthily after it, and the breaker stays open.
  ScriptedEstimator flaky({kNan, kNan, kNan, 42.0});
  GuardedEstimator flaky_guard(flaky, f.table, opts);
  flaky_guard.EstimateBatchGuarded(queries.data(), 8, out.data());
  EXPECT_EQ(flaky.calls(), 8);
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(out[i].source, i < 3 ? 1 : 0) << "query " << i;
  }
  EXPECT_TRUE(flaky_guard.breaker_open());
  EXPECT_EQ(trips.value() - trips0, 2u);
  EXPECT_EQ(recoveries.value() - recoveries0, 1u);
  flaky_guard.EstimateBatchGuarded(queries.data(), 8, out.data());
  EXPECT_EQ(flaky.calls(), 8);
  for (const GuardedEstimate& g : out) EXPECT_EQ(g.source, 1);
}

TEST(GuardedTest, FallbackTierNeverCallsThePrimary) {
  Fixture f = MakeFixture();
  ScriptedEstimator primary({5.0});
  HistogramEstimator histogram(f.table);
  GuardedEstimator guard(primary, f.table);
  const std::vector<Query> queries = QueriesOf(f.workload);
  const size_t n = queries.size();
  std::vector<GuardedEstimate> out(n);
  const std::vector<std::string> records =
      RecordsOf("guard_fallback_tier.jsonl", [&] {
        guard.EstimateFallbackTier(queries.data(), n, out.data());
      });
  EXPECT_EQ(primary.calls(), 0);
  EXPECT_FALSE(guard.breaker_open());
  for (size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(out[i].degraded);
    EXPECT_EQ(out[i].source, 1);
    ASSERT_EQ(out[i].value, histogram.EstimateCardinality(queries[i]));
  }
  ASSERT_EQ(records.size(), n);
  for (const std::string& r : records) {
    EXPECT_NE(r.find("\"reason\":\"drift_fallback\""), std::string::npos) << r;
  }
}

// Callers without a scratch (EstimateGuarded, EstimateCardinality,
// EstimateFallbackTier as perfbench calls it) reuse per-thread buffers,
// so once warm they allocate nothing.
TEST(GuardedTest, ScratchFreeEntryPointsAreAllocationFreeOnceWarm) {
  Fixture f = MakeFixture(/*num_queries=*/32);
  HistogramEstimator primary(f.table);
  GuardedEstimator guard(primary, f.table);
  const std::vector<Query> queries = QueriesOf(f.workload);
  const size_t n = queries.size();
  std::vector<GuardedEstimate> out(n);
  double sink = 0.0;
  const auto pass = [&] {
    for (const Query& q : queries) {
      sink += guard.EstimateGuarded(q).value + guard.EstimateCardinality(q);
    }
    guard.EstimateFallbackTier(queries.data(), n, out.data());
    guard.EstimateBatchGuarded(queries.data(), n, out.data());
  };
  pass();
  const uint64_t before = obs::prof::ThreadAllocCount();
  for (int r = 0; r < 4; ++r) pass();
  EXPECT_EQ(obs::prof::ThreadAllocCount() - before, 0u);
  EXPECT_GT(sink, 0.0);
}

TEST(GuardedTest, FaultsOffGuardedPathMatchesRawPrimaryBitForBit) {
  Fixture f = MakeFixture();
  HistogramEstimator primary(f.table);
  GuardedEstimator guard(primary, f.table);

  std::vector<Query> queries;
  for (const LabeledQuery& lq : f.workload) queries.push_back(lq.query);

  // Scalar path.
  for (const Query& q : queries) {
    ASSERT_EQ(guard.EstimateCardinality(q), primary.EstimateCardinality(q));
  }

  // Batch path: values bit-identical to the primary's batch, every
  // slot healthy.
  std::vector<double> raw(queries.size());
  primary.EstimateBatch(queries.data(), queries.size(), raw.data());
  std::vector<GuardedEstimate> guarded(queries.size());
  guard.EstimateBatchGuarded(queries.data(), queries.size(), guarded.data());
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_EQ(guarded[i].value, raw[i]) << "query " << i;
    EXPECT_FALSE(guarded[i].degraded);
    EXPECT_EQ(guarded[i].source, 0);
  }

  // The double-returning override agrees with the rich path.
  std::vector<double> values(queries.size());
  guard.EstimateBatch(queries.data(), queries.size(), values.data());
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_EQ(values[i], raw[i]) << "query " << i;
  }
}

TEST(GuardedTest, BatchFastPathQuarantinesInvalidSlots) {
  Fixture f = MakeFixture();
  HistogramEstimator primary(f.table);
  GuardedEstimator guard(primary, f.table);

  std::vector<Query> queries;
  for (const LabeledQuery& lq : f.workload) queries.push_back(lq.query);
  const size_t bad_slot = 4;
  queries.insert(queries.begin() + bad_slot,
                 Query{{Predicate::Between(9, 0.0, 1.0)}});

  std::vector<GuardedEstimate> guarded(queries.size());
  guard.EstimateBatchGuarded(queries.data(), queries.size(), guarded.data());
  for (size_t i = 0; i < queries.size(); ++i) {
    if (i == bad_slot) {
      EXPECT_TRUE(guarded[i].degraded);
      EXPECT_EQ(guarded[i].source, -1);
      EXPECT_EQ(guarded[i].value, 0.0);
    } else {
      ASSERT_EQ(guarded[i].value, primary.EstimateCardinality(queries[i]))
          << "query " << i;
      EXPECT_FALSE(guarded[i].degraded);
    }
  }

  // n == 0 is a no-op on both batch entry points.
  guard.EstimateBatchGuarded(nullptr, 0, nullptr);
  guard.EstimateBatch(nullptr, 0, nullptr);
}

TEST(GuardedTest, NameWrapsPrimary) {
  Fixture f = MakeFixture();
  HistogramEstimator primary(f.table);
  GuardedEstimator guard(primary, f.table);
  EXPECT_EQ(guard.name(), "guarded(histogram-avi)");
}

}  // namespace
}  // namespace confcard
