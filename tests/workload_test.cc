#include "query/workload.h"

#include <cstdint>
#include <cstring>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "data/datasets.h"
#include "data/drift.h"
#include "data/generators.h"
#include "exec/scan.h"

namespace confcard {
namespace {

Table SmallTable() {
  TableSpec spec;
  spec.name = "t";
  spec.num_rows = 3000;
  spec.seed = 21;
  ColumnSpec a;
  a.name = "a";
  a.kind = ColumnKind::kCategorical;
  a.domain_size = 6;
  a.zipf_skew = 1.0;
  ColumnSpec b;
  b.name = "b";
  b.kind = ColumnKind::kNumeric;
  b.num_min = 0.0;
  b.num_max = 100.0;
  ColumnSpec c;
  c.name = "c";
  c.kind = ColumnKind::kCategorical;
  c.domain_size = 20;
  c.zipf_skew = 0.5;
  spec.columns = {a, b, c};
  return GenerateTable(spec).value();
}

TEST(WorkloadTest, ProducesRequestedCount) {
  Table t = SmallTable();
  WorkloadConfig cfg;
  cfg.num_queries = 200;
  auto wl = GenerateWorkload(t, cfg);
  ASSERT_TRUE(wl.ok());
  EXPECT_EQ(wl->size(), 200u);
}

TEST(WorkloadTest, LabelsAreExact) {
  Table t = SmallTable();
  WorkloadConfig cfg;
  cfg.num_queries = 100;
  cfg.seed = 3;
  auto wl = GenerateWorkload(t, cfg).value();
  for (const LabeledQuery& lq : wl) {
    EXPECT_DOUBLE_EQ(lq.cardinality,
                     static_cast<double>(CountMatches(t, lq.query)));
    EXPECT_DOUBLE_EQ(lq.num_rows, 3000.0);
  }
}

TEST(WorkloadTest, PredicateCountWithinBounds) {
  Table t = SmallTable();
  WorkloadConfig cfg;
  cfg.num_queries = 150;
  cfg.min_predicates = 2;
  cfg.max_predicates = 3;
  auto wl = GenerateWorkload(t, cfg).value();
  for (const LabeledQuery& lq : wl) {
    EXPECT_GE(lq.query.predicates.size(), 2u);
    EXPECT_LE(lq.query.predicates.size(), 3u);
  }
}

TEST(WorkloadTest, DedupProducesDistinctQueries) {
  Table t = SmallTable();
  WorkloadConfig cfg;
  cfg.num_queries = 300;
  cfg.dedup = true;
  auto wl = GenerateWorkload(t, cfg).value();
  std::set<std::string> keys;
  for (const LabeledQuery& lq : wl) keys.insert(ToString(lq.query));
  EXPECT_EQ(keys.size(), wl.size());
}

TEST(WorkloadTest, SelectivityWindowHonored) {
  Table t = SmallTable();
  WorkloadConfig cfg;
  cfg.num_queries = 100;
  cfg.min_selectivity = 0.01;
  cfg.max_selectivity = 0.2;
  auto wl = GenerateWorkload(t, cfg).value();
  EXPECT_FALSE(wl.empty());
  for (const LabeledQuery& lq : wl) {
    EXPECT_GE(lq.selectivity(), 0.01);
    EXPECT_LE(lq.selectivity(), 0.2);
  }
}

TEST(WorkloadTest, AllowedColumnsRestricted) {
  Table t = SmallTable();
  WorkloadConfig cfg;
  cfg.num_queries = 100;
  cfg.allowed_columns = {0, 2};
  auto wl = GenerateWorkload(t, cfg).value();
  for (const LabeledQuery& lq : wl) {
    for (const Predicate& p : lq.query.predicates) {
      EXPECT_TRUE(p.column == 0 || p.column == 2);
    }
  }
}

TEST(WorkloadTest, CategoricalAlwaysEquality) {
  Table t = SmallTable();
  WorkloadConfig cfg;
  cfg.num_queries = 200;
  cfg.range_prob = 1.0;
  auto wl = GenerateWorkload(t, cfg).value();
  for (const LabeledQuery& lq : wl) {
    for (const Predicate& p : lq.query.predicates) {
      if (t.column(static_cast<size_t>(p.column)).is_categorical()) {
        EXPECT_EQ(p.op, PredOp::kEq);
      }
    }
  }
}

TEST(WorkloadTest, RangeProbZeroMeansAllPoints) {
  Table t = SmallTable();
  WorkloadConfig cfg;
  cfg.num_queries = 100;
  cfg.range_prob = 0.0;
  auto wl = GenerateWorkload(t, cfg).value();
  for (const LabeledQuery& lq : wl) {
    for (const Predicate& p : lq.query.predicates) {
      EXPECT_EQ(p.op, PredOp::kEq);
    }
  }
}

TEST(WorkloadTest, DataCenteredQueriesMostlyNonEmpty) {
  Table t = SmallTable();
  WorkloadConfig cfg;
  cfg.num_queries = 300;
  cfg.center_mode = CenterMode::kDataCentered;
  auto wl = GenerateWorkload(t, cfg).value();
  size_t nonempty = 0;
  for (const LabeledQuery& lq : wl) nonempty += lq.cardinality > 0 ? 1 : 0;
  EXPECT_GT(nonempty, wl.size() * 9 / 10);
}

TEST(WorkloadTest, UniformModeShiftsSelectivityDown) {
  Table t = SmallTable();
  WorkloadConfig data_cfg, uni_cfg;
  data_cfg.num_queries = uni_cfg.num_queries = 300;
  data_cfg.min_predicates = uni_cfg.min_predicates = 2;
  data_cfg.max_predicates = uni_cfg.max_predicates = 3;
  uni_cfg.center_mode = CenterMode::kUniform;
  auto dw = GenerateWorkload(t, data_cfg).value();
  auto uw = GenerateWorkload(t, uni_cfg).value();
  double ds = 0, us = 0;
  for (const auto& q : dw) ds += q.selectivity();
  for (const auto& q : uw) us += q.selectivity();
  EXPECT_LT(us / static_cast<double>(uw.size()),
            ds / static_cast<double>(dw.size()));
}

TEST(WorkloadTest, DeterministicBySeed) {
  Table t = SmallTable();
  WorkloadConfig cfg;
  cfg.num_queries = 50;
  cfg.seed = 77;
  auto a = GenerateWorkload(t, cfg).value();
  auto b = GenerateWorkload(t, cfg).value();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].query, b[i].query);
  }
}

// ------------------------------------------------------------------
// Golden workloads. Labeling runs in parallel batches, but labels never
// feed back into drawing, so every workload must be bit-identical to
// the one the serial draw-label-accept loop produced. The fingerprints
// below were recorded from that serial generator; each config is
// checked at 1 and 4 threads.
// ------------------------------------------------------------------

class Fnv1a {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFFu;
      h_ *= 0x100000001b3ull;
    }
  }
  void Add(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    Add(bits);
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ull;
};

void AddWorkload(const Workload& wl, Fnv1a* h) {
  h->Add(static_cast<uint64_t>(wl.size()));
  for (const LabeledQuery& lq : wl) {
    h->Add(static_cast<uint64_t>(lq.query.predicates.size()));
    for (const Predicate& p : lq.query.predicates) {
      h->Add(static_cast<uint64_t>(p.column));
      h->Add(static_cast<uint64_t>(p.op));
      h->Add(p.lo);
      h->Add(p.hi);
    }
    h->Add(lq.cardinality);
    h->Add(lq.num_rows);
  }
}

uint64_t Fingerprint(const Workload& wl) {
  Fnv1a h;
  AddWorkload(wl, &h);
  return h.value();
}

const Table& Dmv40k() {
  static const Table t = MakeDmv(40000, 3).value();
  return t;
}

struct GoldenCase {
  const char* name;
  WorkloadConfig config;
  size_t size;
  uint64_t fingerprint;
};

std::vector<GoldenCase> GoldenCases() {
  std::vector<GoldenCase> cases;
  const uint64_t dmv_fingerprints[] = {0x7f3284c2be452b86ull,
                                       0xe033db34dea41d69ull,
                                       0x06e1a8e2fc588befull};
  for (uint64_t seed : {1, 2, 3}) {
    WorkloadConfig c;
    c.num_queries = 1000;
    c.max_selectivity = 0.2;
    c.seed = seed;
    cases.push_back({"dmv_sel0.2", c, 1000, dmv_fingerprints[seed - 1]});
  }
  {
    // A window so narrow that the retry budget runs out first.
    WorkloadConfig c;
    c.num_queries = 300;
    c.min_selectivity = 0.3;
    c.max_selectivity = 0.32;
    c.seed = 4;
    cases.push_back({"budget_exhausted", c, 11, 0x9f11f3f464d1e14eull});
  }
  {
    WorkloadConfig c;
    c.num_queries = 400;
    c.dedup = false;
    c.max_predicates = 1;
    c.allowed_columns = {0, 1};
    c.seed = 5;
    cases.push_back({"no_dedup", c, 400, 0xd97eba6c460654bfull});
  }
  {
    WorkloadConfig c;
    c.num_queries = 400;
    c.center_mode = CenterMode::kUniform;
    c.seed = 6;
    cases.push_back({"uniform", c, 400, 0x77fa57a574f3caabull});
  }
  {
    WorkloadConfig c;
    c.num_queries = 400;
    c.allowed_columns = {1, 4, 7, 10};
    c.max_selectivity = 0.5;
    c.seed = 7;
    cases.push_back({"allowed_columns", c, 400, 0x18b063953639fed2ull});
  }
  return cases;
}

// Pins the thread count for one scope and restores it afterwards.
class ThreadsScope {
 public:
  explicit ThreadsScope(int n) : saved_(CurrentThreads()) { SetThreads(n); }
  ~ThreadsScope() { SetThreads(saved_); }

 private:
  int saved_;
};

class WorkloadGoldenTest : public ::testing::TestWithParam<int> {};

TEST_P(WorkloadGoldenTest, MatchesSerialGenerator) {
  ThreadsScope threads(GetParam());
  for (const GoldenCase& g : GoldenCases()) {
    const Workload wl = GenerateWorkload(Dmv40k(), g.config).value();
    EXPECT_EQ(wl.size(), g.size) << g.name << " seed=" << g.config.seed;
    EXPECT_EQ(Fingerprint(wl), g.fingerprint)
        << g.name << " seed=" << g.config.seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, WorkloadGoldenTest,
                         ::testing::Values(1, 4));

uint64_t DriftStreamFingerprint() {
  TableSpec spec;
  spec.name = "drift_base";
  spec.num_rows = 20000;
  spec.seed = 7;
  ColumnSpec a;
  a.name = "a";
  a.kind = ColumnKind::kCategorical;
  a.domain_size = 40;
  a.zipf_skew = 0.8;
  ColumnSpec b;
  b.name = "b";
  b.kind = ColumnKind::kNumeric;
  b.num_min = 0.0;
  b.num_max = 1000.0;
  ColumnSpec c;
  c.name = "c";
  c.kind = ColumnKind::kCategorical;
  c.domain_size = 12;
  c.zipf_skew = 0.4;
  spec.columns = {a, b, c};
  drift::DriftStreamOptions so;
  so.num_queries = 600;
  so.workload.max_selectivity = 0.2;
  so.seed = 21;
  const auto specs =
      drift::ParseDriftSpecs("update:1@0.4;zipf:1@0.4;template:0.5@0.4")
          .value();
  const drift::DriftStream s =
      drift::GenerateDriftStream(spec, so, specs).value();
  Fnv1a h;
  AddWorkload(s.stream, &h);
  h.Add(static_cast<uint64_t>(s.onset_index));
  return h.value();
}

TEST(DriftStreamGoldenTest, IdenticalAcrossThreadCounts) {
  uint64_t serial, parallel;
  {
    ThreadsScope threads(1);
    serial = DriftStreamFingerprint();
  }
  {
    ThreadsScope threads(4);
    parallel = DriftStreamFingerprint();
  }
  EXPECT_EQ(serial, 0x313b24e4bbf1fabeull);
  EXPECT_EQ(parallel, serial);
}

TEST(WorkloadValidationTest, RejectsBadConfigs) {
  Table t = SmallTable();
  WorkloadConfig cfg;
  cfg.min_predicates = 0;
  EXPECT_FALSE(GenerateWorkload(t, cfg).ok());

  cfg = {};
  cfg.range_prob = 1.5;
  EXPECT_FALSE(GenerateWorkload(t, cfg).ok());

  cfg = {};
  cfg.max_range_frac = 0.0;
  EXPECT_FALSE(GenerateWorkload(t, cfg).ok());

  cfg = {};
  cfg.min_selectivity = 0.5;
  cfg.max_selectivity = 0.1;
  EXPECT_FALSE(GenerateWorkload(t, cfg).ok());

  cfg = {};
  cfg.allowed_columns = {99};
  EXPECT_FALSE(GenerateWorkload(t, cfg).ok());
}

}  // namespace
}  // namespace confcard
