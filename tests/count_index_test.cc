// CountIndex must equal CountMatches, and a naive row-at-a-time
// evaluator, on every query: random tables and queries, NaN cells and
// bounds, empty and infinite ranges, signed zeros, repeated columns,
// constant columns, and CountBatch at 1 and 4 threads.
#include "exec/count_index.h"

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/rng.h"
#include "data/generators.h"
#include "exec/scan.h"

namespace confcard {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

uint64_t Naive(const Table& t, const Query& q) {
  uint64_t n = 0;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    bool match = true;
    for (const Predicate& p : q.predicates) {
      match = match && p.Matches(t.At(r, static_cast<size_t>(p.column)));
    }
    n += match ? 1 : 0;
  }
  return n;
}

void ExpectAllAgree(const Table& t, const CountIndex& index,
                    const std::vector<Query>& queries) {
  for (const Query& q : queries) {
    const uint64_t naive = Naive(t, q);
    EXPECT_EQ(CountMatches(t, q), naive) << ToString(q);
    EXPECT_EQ(index.Count(q), naive) << ToString(q);
  }
}

// Pins the thread count for one scope and restores it afterwards.
class ThreadsScope {
 public:
  explicit ThreadsScope(int n) : saved_(CurrentThreads()) { SetThreads(n); }
  ~ThreadsScope() { SetThreads(saved_); }

 private:
  int saved_;
};

// Numeric cells with ties, NaN, signed zeros and infinities.
Table EdgeTable() {
  std::vector<double> a = {1.0,  kNaN, -0.0, 0.0,  2.5, kInf,
                           -kInf, 2.5, kNaN, -1.0, 0.0, 7.0};
  std::vector<double> b = {3, 3, 1, 0, 2, 3, 1, 1, 0, 2, 3, 0};
  std::vector<double> c(a.size(), 4.0);  // all equal
  std::vector<Column> cols;
  cols.push_back(Column::Numeric("a", a));
  cols.push_back(Column::Categorical("b", 4, b));
  cols.push_back(Column::Numeric("c", c));
  return Table::Make("edge", std::move(cols)).value();
}

TEST(CountIndexTest, EmptyQueryCountsEveryRow) {
  const Table t = EdgeTable();
  const CountIndex index(t);
  EXPECT_EQ(index.Count(Query{}), t.num_rows());
  EXPECT_EQ(CountMatches(t, Query{}), t.num_rows());
}

TEST(CountIndexTest, NanCellsNeverMatch) {
  const Table t = EdgeTable();
  const CountIndex index(t);
  ExpectAllAgree(t, index,
                 {Query{{Predicate::Between(0, -kInf, kInf)}},
                  Query{{Predicate::Between(0, -kInf, kInf),
                         Predicate::Eq(2, 4.0)}}});
  EXPECT_EQ(index.Count(Query{{Predicate::Between(0, -kInf, kInf)}}), 10u);
}

TEST(CountIndexTest, NanBoundsMatchNothing) {
  const Table t = EdgeTable();
  const CountIndex index(t);
  const std::vector<Query> queries = {
      Query{{Predicate::Eq(0, kNaN)}},
      Query{{Predicate::Between(0, kNaN, kInf)}},
      Query{{Predicate::Between(0, -kInf, kNaN)}},
      Query{{Predicate::Eq(2, kNaN)}},
      Query{{Predicate::Eq(2, 4.0), Predicate::Between(1, kNaN, 3.0)}},
  };
  ExpectAllAgree(t, index, queries);
  for (const Query& q : queries) EXPECT_EQ(index.Count(q), 0u) << ToString(q);
}

TEST(CountIndexTest, EmptyAndInfiniteRanges) {
  const Table t = EdgeTable();
  const CountIndex index(t);
  ExpectAllAgree(t, index,
                 {Query{{Predicate::Between(0, 3.0, 1.0)}},
                  Query{{Predicate::Between(2, 5.0, 3.0)}},
                  Query{{Predicate::Eq(0, kInf)}},
                  Query{{Predicate::Eq(0, -kInf)}},
                  Query{{Predicate::Between(0, kInf, -kInf)}},
                  Query{{Predicate::Between(0, 2.5, kInf)}},
                  Query{{Predicate::Between(0, -kInf, 0.0)}},
                  Query{{Predicate::Between(0, 100.0, kInf)}},
                  Query{{Predicate::Between(0, -kInf, -100.0)}}});
  EXPECT_EQ(index.Count(Query{{Predicate::Between(0, 3.0, 1.0)}}), 0u);
}

TEST(CountIndexTest, SignedZerosCompareEqual) {
  const Table t = EdgeTable();
  const CountIndex index(t);
  ExpectAllAgree(t, index,
                 {Query{{Predicate::Eq(0, 0.0)}},
                  Query{{Predicate::Eq(0, -0.0)}},
                  Query{{Predicate::Between(0, -0.0, 0.0)}},
                  Query{{Predicate::Between(0, 0.0, -0.0)}}});
  EXPECT_EQ(index.Count(Query{{Predicate::Eq(0, -0.0)}}), 3u);
}

TEST(CountIndexTest, TwoPredicatesOnOneColumnIntersect) {
  const Table t = EdgeTable();
  const CountIndex index(t);
  ExpectAllAgree(t, index,
                 {Query{{Predicate::Between(0, -1.0, 2.5),
                         Predicate::Between(0, 0.0, 7.0)}},
                  Query{{Predicate::Between(0, -1.0, 0.0),
                         Predicate::Between(0, 2.5, 7.0)}},
                  Query{{Predicate::Eq(1, 3.0), Predicate::Eq(1, 3.0)}},
                  Query{{Predicate::Eq(1, 3.0), Predicate::Eq(1, 2.0)}},
                  Query{{Predicate::Between(0, -kInf, 2.5),
                         Predicate::Eq(1, 3.0),
                         Predicate::Between(0, 0.0, kInf)}}});
}

TEST(CountIndexTest, AllEqualColumn) {
  const Table t = EdgeTable();
  const CountIndex index(t);
  ExpectAllAgree(t, index,
                 {Query{{Predicate::Eq(2, 4.0)}},
                  Query{{Predicate::Eq(2, 3.0)}},
                  Query{{Predicate::Between(2, 4.0, 4.0),
                         Predicate::Eq(1, 0.0)}},
                  Query{{Predicate::Between(2, -kInf, 3.99)}}});
  EXPECT_EQ(index.Count(Query{{Predicate::Eq(2, 4.0)}}), t.num_rows());
}

// Random tables mixing low-cardinality categorical columns (many ties),
// a continuous numeric column, and one salted with NaN/inf/signed zeros.
Table RandomTable(uint64_t seed) {
  TableSpec spec;
  spec.name = "r";
  spec.num_rows = 1500;
  spec.seed = seed;
  ColumnSpec a;
  a.name = "a";
  a.domain_size = 9;
  a.zipf_skew = 0.8;
  ColumnSpec b;
  b.name = "b";
  b.kind = ColumnKind::kNumeric;
  b.num_min = -5.0;
  b.num_max = 5.0;
  ColumnSpec c;
  c.name = "c";
  c.domain_size = 3;
  spec.columns = {a, b, c};
  const Table base = GenerateTable(spec).value();

  Rng rng(seed * 31 + 7);
  const double specials[] = {kNaN, kInf, -kInf, 0.0, -0.0, 1.0};
  std::vector<double> d(base.num_rows());
  for (double& v : d) {
    v = rng.NextDouble() < 0.3 ? specials[rng.NextUint64(6)]
                               : std::round(rng.NextDouble(-4.0, 4.0));
  }
  std::vector<Column> cols = base.columns();
  cols.push_back(Column::Numeric("d", std::move(d)));
  return Table::Make("r", std::move(cols)).value();
}

std::vector<Query> RandomQueries(const Table& t, uint64_t seed, int n) {
  Rng rng(seed ^ 0x5eedull);
  std::vector<Query> out;
  for (int i = 0; i < n; ++i) {
    Query q;
    const int k = static_cast<int>(rng.NextInt64(0, 4));
    for (int j = 0; j < k; ++j) {
      const int col = static_cast<int>(rng.NextUint64(t.num_columns()));
      // Literals from real cells hit tie boundaries exactly.
      const double v = t.At(rng.NextUint64(t.num_rows()),
                            static_cast<size_t>(col));
      const double roll = rng.NextDouble();
      if (roll < 0.4) {
        q.predicates.push_back(Predicate::Eq(col, v));
      } else if (roll < 0.9) {
        const double w = t.At(rng.NextUint64(t.num_rows()),
                              static_cast<size_t>(col));
        q.predicates.push_back(Predicate::Between(col, std::fmin(v, w),
                                                  std::fmax(v, w)));
      } else {
        q.predicates.push_back(Predicate::Between(
            col, v, v - rng.NextDouble(0.0, 3.0)));  // often lo > hi
      }
    }
    out.push_back(std::move(q));
  }
  return out;
}

class CountIndexPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CountIndexPropertyTest, MatchesReferenceOracles) {
  const Table t = RandomTable(GetParam());
  const CountIndex index(t);
  ExpectAllAgree(t, index, RandomQueries(t, GetParam(), 150));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CountIndexPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(CountIndexBatchTest, BatchEqualsCountMatchesAtOneAndFourThreads) {
  const Table t = RandomTable(11);
  const std::vector<Query> queries = RandomQueries(t, 11, 600);
  std::vector<uint64_t> expected(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    expected[i] = CountMatches(t, queries[i]);
  }
  for (int threads : {1, 4}) {
    ThreadsScope scope(threads);
    const CountIndex index(t);
    std::vector<uint64_t> got(queries.size(), ~uint64_t{0});
    index.CountBatch(queries.data(), queries.size(), got.data());
    EXPECT_EQ(got, expected) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace confcard
