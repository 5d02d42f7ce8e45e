// Regression coverage for the batched, sparsity-aware inference engine,
// the only path a trained model answers queries through (per-query
// estimation is a batch of one): (1) golden fixed-seed Naru
// progressive-sampling values, asserted bit-exact for both the dense
// reference sampler and the sparse engine — any change to either
// forward shows up here first; (2) batch-vs-batch-of-one bit identity
// for MSCN, MSCN-join, LW-NN and Naru EstimateBatch, including batches
// that mix trivial (no-predicate, empty-range) queries with engine
// queries and batches that cross MSCN's 256-query chunk boundary;
// (3) concurrent per-query calls from pool threads (labelled
// parallel-smoke so the TSan/ASan presets run them); (4) the
// MaskedDense sparse kernels against their dense Apply equivalents.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <set>
#include <vector>

#include "ce/estimator.h"
#include "ce/lwnn.h"
#include "ce/mscn.h"
#include "ce/naru.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "data/datasets.h"
#include "data/generators.h"
#include "data/multitable.h"
#include "nn/layers.h"
#include "query/join_workload.h"
#include "query/workload.h"

namespace confcard {
namespace {

struct Fixture {
  Table table;
  Workload workload;
};

// Must stay in sync with build-time golden generation: the literals
// below were recorded from this exact fixture and Naru config.
Fixture MakeFixture() {
  TableSpec spec;
  spec.name = "g";
  spec.num_rows = 2000;
  spec.seed = 31;
  ColumnSpec a;
  a.name = "a";
  a.domain_size = 5;
  a.zipf_skew = 0.7;
  ColumnSpec b;
  b.name = "b";
  b.kind = ColumnKind::kNumeric;
  b.num_min = 0.0;
  b.num_max = 40.0;
  ColumnSpec c;
  c.name = "c";
  c.domain_size = 4;
  spec.columns = {a, b, c};
  Table table = GenerateTable(spec).value();

  WorkloadConfig wc;
  wc.num_queries = 12;
  wc.seed = 21;
  Workload wl = GenerateWorkload(table, wc).value();
  return {std::move(table), std::move(wl)};
}

NaruConfig SmallNaruConfig() {
  NaruConfig nc;
  nc.hidden = 16;
  nc.hidden_layers = 1;
  nc.epochs = 2;
  nc.num_samples = 8;
  return nc;
}

// Fixed-seed progressive-sampling selectivities recorded from the dense
// reference sampler (hexfloat: exact bits). The sparse engine must
// reproduce them bit for bit — "bit-identical" is the engine's contract,
// not an approximation target.
constexpr double kGoldenSelectivity[] = {
    0x1.da79b79efce9fp-10,
    0x1.90640fa3c92dep-5,
    0x1.2f8ef4d8fd55p-5,
    0x1.f1abff074a41ep-3,
    0x1.b001c2d1622b8p-5,
    0x1.459b471c6aa9cp-5,
    0x1.d08e571ea78dcp-7,
    0x1.6a5e5a04e642fp-8,
    0x1.345a617862f7p-8,
    0x1.8b4c08p-3,
    0x1.1bbc3ce467317p-4,
    0x1.8724f4839279ep-3,
};

TEST(InferenceBatchTest, GoldenProgressiveSampleBitExactDenseAndSparse) {
  Fixture f = MakeFixture();
  NaruEstimator naru(SmallNaruConfig());
  ASSERT_TRUE(naru.Train(f.table).ok());
  ASSERT_EQ(f.workload.size(),
            sizeof(kGoldenSelectivity) / sizeof(kGoldenSelectivity[0]));

  for (size_t i = 0; i < f.workload.size(); ++i) {
    ASSERT_EQ(naru.ReferenceSelectivity(f.workload[i].query),
              kGoldenSelectivity[i])
        << "dense reference, query " << i;
  }
  for (size_t i = 0; i < f.workload.size(); ++i) {
    ASSERT_EQ(naru.EstimateSelectivity(f.workload[i].query),
              kGoldenSelectivity[i])
        << "sparse engine, query " << i;
  }
}

// Batches mixing trivial queries (no predicates; empty bin range) with
// engine queries must agree with batches of one on every slot, and the
// engine's trivial-query shortcuts with the shortcut-free reference.
TEST(InferenceBatchTest, NaruBatchWithTrivialQueriesMatchesLoop) {
  Fixture f = MakeFixture();
  NaruEstimator naru(SmallNaruConfig());
  ASSERT_TRUE(naru.Train(f.table).ok());

  std::vector<Query> queries;
  queries.push_back(Query{});  // no predicates -> N
  for (const LabeledQuery& lq : f.workload) queries.push_back(lq.query);
  // Empty bin range on the numeric column (interval below the domain).
  queries.insert(queries.begin() + 3,
                 Query{{Predicate::Between(1, -10.0, -5.0)}});

  std::vector<double> loop;
  for (const Query& q : queries) loop.push_back(naru.EstimateCardinality(q));

  std::vector<double> batched(queries.size());
  naru.EstimateBatch(queries.data(), queries.size(), batched.data());
  const double num_rows = static_cast<double>(f.table.num_rows());
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_EQ(batched[i], loop[i]) << "query " << i;
    ASSERT_EQ(loop[i], naru.ReferenceSelectivity(queries[i]) * num_rows)
        << "reference, query " << i;
  }

  // n == 0 is a no-op.
  naru.EstimateBatch(nullptr, 0, nullptr);
}

// Every slot of a batch must equal the same query estimated alone.
template <typename Estimator, typename QueryT>
void ExpectBatchMatchesBatchesOfOne(const Estimator& est,
                                    const std::vector<QueryT>& queries,
                                    const char* label) {
  std::vector<double> batched(queries.size());
  est.EstimateBatch(queries.data(), queries.size(), batched.data());
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_EQ(batched[i], est.EstimateCardinality(queries[i]))
        << label << " query " << i << " of " << queries.size();
  }
}

TEST(InferenceBatchTest, MscnAndLwnnBatchMatchesLoop) {
  Fixture f = MakeFixture();

  MscnEstimator::Options mo;
  mo.model.epochs = 4;
  mo.model.set_hidden = 16;
  mo.model.final_hidden = 16;
  MscnEstimator mscn(mo);
  ASSERT_TRUE(mscn.Train(f.table, f.workload).ok());

  LwnnEstimator::Options lo;
  lo.epochs = 6;
  lo.hidden1 = 16;
  lo.hidden2 = 8;
  LwnnEstimator lwnn(lo);
  ASSERT_TRUE(lwnn.Train(f.table, f.workload).ok());

  std::vector<Query> queries;
  queries.push_back(Query{});  // empty-set / all-defaults featurization
  for (const LabeledQuery& lq : f.workload) queries.push_back(lq.query);
  ExpectBatchMatchesBatchesOfOne(mscn, queries, "mscn");
  ExpectBatchMatchesBatchesOfOne(lwnn, queries, "lw-nn");

  // More than 2 x 256 queries: MSCN runs the batch as three chunked
  // forwards, and every chunk must land at its own offset in `out`.
  WorkloadConfig wc;
  wc.num_queries = 600;
  wc.seed = 22;
  const Workload more = GenerateWorkload(f.table, wc).value();
  for (const LabeledQuery& lq : more) {
    queries.push_back(lq.query);
  }
  queries.push_back(Query{});
  ASSERT_GT(queries.size(), 2 * size_t{256});
  ExpectBatchMatchesBatchesOfOne(mscn, queries, "mscn");
  ExpectBatchMatchesBatchesOfOne(lwnn, queries, "lw-nn");
}

// MSCN over joins: every DSB template (2-5 tables, 1-4 joins, 1-4
// predicates) plus a predicate-free query, in a batch that crosses the
// 256-query chunk boundary.
// Golden inference bits across versions. The identity tests above
// compare the current code with itself; these fingerprints pin the exact
// output bits of trained LW-NN and MSCN models on a fixed DMV smoke
// workload, as recorded from the GEMM-based forward that preceded the
// register-tiled one (nn::AffineRows), so any change to an estimate's
// bits — however consistent with itself — fails here.
uint64_t FingerprintEstimates(const std::vector<double>& est) {
  uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a over the bytes
  for (double v : est) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xFFu;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

TEST(InferenceBatchTest, GoldenLwnnAndMscnFingerprints) {
  const Table table = MakeDmv(4000, 3).value();
  WorkloadConfig wc;
  wc.num_queries = 300;
  wc.seed = 17;
  const Workload workload = GenerateWorkload(table, wc).value();
  std::vector<Query> queries;
  for (const LabeledQuery& lq : workload) queries.push_back(lq.query);
  std::vector<double> est(queries.size());

  LwnnEstimator::Options lo;
  lo.hidden1 = 32;
  lo.hidden2 = 16;
  lo.epochs = 4;
  LwnnEstimator lwnn(lo);
  ASSERT_TRUE(lwnn.Train(table, workload).ok());
  lwnn.EstimateBatch(queries.data(), queries.size(), est.data());
  EXPECT_GT(std::set<double>(est.begin(), est.end()).size(), 100u);
  EXPECT_EQ(FingerprintEstimates(est), 0xdec4068917584f96ull);

  MscnEstimator::Options mo;
  mo.model.set_hidden = 32;
  mo.model.final_hidden = 32;
  mo.model.epochs = 3;
  MscnEstimator mscn(mo);
  ASSERT_TRUE(mscn.Train(table, workload).ok());
  mscn.EstimateBatch(queries.data(), queries.size(), est.data());
  EXPECT_GT(std::set<double>(est.begin(), est.end()).size(), 100u);
  EXPECT_EQ(FingerprintEstimates(est), 0x52c97146b8c6bc94ull);
}

TEST(InferenceBatchTest, MscnJoinBatchMatchesLoop) {
  const Database db = MakeDsbLike(1500, 41).value();
  JoinWorkloadConfig jc;
  jc.queries_per_template = 30;
  jc.seed = 7;
  const JoinWorkload wl =
      GenerateJoinWorkload(db, DsbTemplates(), jc).value();

  MscnConfig mc;
  mc.epochs = 2;
  mc.set_hidden = 16;
  mc.final_hidden = 16;
  MscnJoinEstimator mscn(mc);
  ASSERT_TRUE(mscn.Train(db, wl).ok());

  std::vector<JoinQuery> queries;
  for (const LabeledJoinQuery& lq : wl) queries.push_back(lq.query);
  JoinQuery no_preds = queries.back();
  no_preds.predicates.clear();
  queries.push_back(no_preds);
  ASSERT_GT(queries.size(), size_t{256});
  ExpectBatchMatchesBatchesOfOne(mscn, queries, "mscn-join");

  const std::vector<JoinQuery> mixed(queries.end() - 40, queries.end());
  ExpectBatchMatchesBatchesOfOne(mscn, mixed, "mscn-join");
}

// Per-query calls are batches of one on the engine's arena tensors and
// packed batches. Pool threads calling them concurrently (as the JK-CV+
// and LW-S-CP loops do) must reproduce one single-threaded batch bit
// for bit.
TEST(InferenceBatchTest, ConcurrentPerQueryCallsMatchSingleThreadedBatch) {
  const int saved_threads = CurrentThreads();
  Fixture f = MakeFixture();

  LwnnEstimator::Options lo;
  lo.epochs = 4;
  lo.hidden1 = 16;
  lo.hidden2 = 8;
  LwnnEstimator lwnn(lo);
  ASSERT_TRUE(lwnn.Train(f.table, f.workload).ok());

  MscnEstimator::Options mo;
  mo.model.epochs = 2;
  mo.model.set_hidden = 16;
  mo.model.final_hidden = 16;
  MscnEstimator mscn(mo);
  ASSERT_TRUE(mscn.Train(f.table, f.workload).ok());

  NaruEstimator naru(SmallNaruConfig());
  ASSERT_TRUE(naru.Train(f.table).ok());

  WorkloadConfig wc;
  wc.num_queries = 64;
  wc.seed = 23;
  const Workload wl = GenerateWorkload(f.table, wc).value();
  std::vector<Query> queries;
  queries.push_back(Query{});
  for (const LabeledQuery& lq : wl) {
    queries.push_back(lq.query);
  }

  const CardinalityEstimator* models[] = {&lwnn, &mscn, &naru};
  for (const CardinalityEstimator* model : models) {
    SCOPED_TRACE(model->name());
    SetThreads(1);
    std::vector<double> want(queries.size());
    model->EstimateBatch(queries.data(), queries.size(), want.data());

    SetThreads(4);
    std::vector<double> got(queries.size());
    ParallelFor(queries.size(), 1, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        got[i] = model->EstimateCardinality(queries[i]);
      }
    });
    for (size_t i = 0; i < queries.size(); ++i) {
      ASSERT_EQ(got[i], want[i]) << "query " << i;
    }
  }
  SetThreads(saved_threads);
}

// The base-class EstimateBatch (the per-query loop every estimator
// without a batched engine inherits) must tolerate n == 0 — including
// null pointers — and match the scalar path on a single-query batch.
TEST(InferenceBatchTest, BaseClassEstimateBatchEdgeSizes) {
  class CountingEstimator : public CardinalityEstimator {
   public:
    std::string name() const override { return "counting"; }
    double EstimateCardinality(const Query& query) const override {
      ++calls;
      return static_cast<double>(query.predicates.size()) + 0.5;
    }
    mutable int calls = 0;
  };

  CountingEstimator est;
  est.EstimateBatch(nullptr, 0, nullptr);
  EXPECT_EQ(est.calls, 0);

  const Query q{{Predicate::Between(0, 1.0, 2.0)}};
  double out = 0.0;
  est.EstimateBatch(&q, 1, &out);
  EXPECT_EQ(est.calls, 1);
  EXPECT_EQ(out, est.EstimateCardinality(q));
}

// Kernel-level contract: the sparse one-hot forward and the
// column-restricted dense forward reproduce Apply's bits exactly.
TEST(InferenceBatchTest, MaskedDenseSparseKernelsMatchApply) {
  const size_t in_dim = 37, out_dim = 23, rows = 9;
  Rng rng(123);
  nn::Tensor mask(in_dim, out_dim);
  for (size_t i = 0; i < mask.size(); ++i) {
    mask.data()[i] = rng.NextDouble() < 0.7 ? 1.0f : 0.0f;
  }
  nn::MaskedDense layer(in_dim, out_dim, std::move(mask), rng);

  // Random block-sparse one-hot rows (including an all-zero row).
  std::vector<uint32_t> indices;
  std::vector<size_t> offsets = {0};
  nn::Tensor dense(rows, in_dim);
  for (size_t r = 0; r < rows; ++r) {
    const size_t nnz = r == 4 ? 0 : 1 + rng.NextUint64(4);
    uint32_t pos = 0;
    for (size_t t = 0; t < nnz; ++t) {
      // Strictly ascending indices across the row.
      pos += static_cast<uint32_t>(rng.NextUint64(in_dim / 5)) + 1;
      if (pos >= in_dim) break;
      indices.push_back(pos);
      dense.At(r, pos) = 1.0f;
    }
    offsets.push_back(indices.size());
  }
  const nn::SparseRows sparse{rows, in_dim, indices.data(), offsets.data()};

  const nn::Tensor want = layer.Apply(dense);
  const nn::Tensor got = layer.ApplyOneHot(sparse);
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got.data()[i], want.data()[i]) << "element " << i;
  }

  const size_t c0 = 5, c1 = 17;
  const nn::Tensor got_cols = layer.ApplyCols(dense, c0, c1);
  const nn::Tensor got_oh_cols = layer.ApplyOneHotCols(sparse, c0, c1);
  ASSERT_EQ(got_cols.cols(), c1 - c0);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = c0; c < c1; ++c) {
      ASSERT_EQ(got_cols.At(r, c - c0), want.At(r, c));
      ASSERT_EQ(got_oh_cols.At(r, c - c0), want.At(r, c));
    }
  }
}

}  // namespace
}  // namespace confcard
