// Shared setup for the experiment binaries: default model
// hyper-parameters (mirroring the "best hyper-parameters from [51]"
// convention of the paper, tuned here for CPU scale), workload-split
// construction, and scale-aware sizes.
#ifndef CONFCARD_BENCH_BENCH_COMMON_H_
#define CONFCARD_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "ce/guarded.h"
#include "ce/lwnn.h"
#include "ce/mscn.h"
#include "ce/naru.h"
#include "common/check.h"
#include "conformal/scoring.h"
#include "conformal/split.h"
#include "data/datasets.h"
#include "harness/scale.h"
#include "harness/single_table.h"
#include "obs/event_log.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "query/workload.h"

namespace confcard {
namespace bench {

/// Arms the end-of-process metrics artifact when CONFCARD_METRICS_JSON
/// names a path (no-op otherwise). Every binary that includes this
/// header gets the behaviour for free via the inline global below — no
/// per-binary wiring required. Safe to trigger from multiple translation
/// units: InstallExitEmitter is idempotent and the process emits at most
/// one artifact.
///
/// Also touches the per-query event log singleton so a bench armed with
/// CONFCARD_EVENTS_JSONL opens (and truncates) its JSONL sink before any
/// harness work, and records in the artifact meta whether events were
/// streamed this run.
inline bool InstallMetricsEmitter() {
  const bool armed = obs::InstallExitEmitter();
  const bool events = obs::EventLog::Instance().enabled();
  if (armed) {
    obs::Metrics().SetMeta("scale", BenchScale());
    obs::Metrics().SetMeta("events_jsonl", events ? 1.0 : 0.0);
  }
  return armed;
}

inline const bool kMetricsEmitterInstalled = InstallMetricsEmitter();

/// Default row count for single-table experiments.
inline size_t DefaultRows() { return Scaled(40000, 2000); }

/// Default workload sizes (50-50 train/calibration split per the paper;
/// the split experiment of Figure 12 varies this).
inline size_t TrainQueries() { return Scaled(1500, 100); }
inline size_t CalibQueries() { return Scaled(1500, 100); }
inline size_t TestQueries() { return Scaled(800, 100); }

/// Three disjoint-seed workload splits over `table`. `max_selectivity`
/// defaults to the paper's low-selectivity focus.
struct Splits {
  Workload train;
  Workload calib;
  Workload test;
};

inline Splits MakeSplits(const Table& table, double max_selectivity = 0.2,
                         uint64_t seed_base = 1,
                         size_t train_n = TrainQueries(),
                         size_t calib_n = CalibQueries(),
                         size_t test_n = TestQueries()) {
  obs::Metrics().SetMeta("workload.seed_base",
                         static_cast<double>(seed_base));
  obs::Metrics().SetMeta("workload.max_selectivity", max_selectivity);
  WorkloadConfig wc;
  wc.max_selectivity = max_selectivity;
  wc.num_queries = train_n;
  wc.seed = seed_base;
  Splits s;
  s.train = GenerateWorkload(table, wc).value();
  wc.num_queries = calib_n;
  wc.seed = seed_base + 1;
  s.calib = GenerateWorkload(table, wc).value();
  wc.num_queries = test_n;
  wc.seed = seed_base + 2;
  s.test = GenerateWorkload(table, wc).value();
  return s;
}

/// MSCN with the tuned defaults used across experiments.
inline MscnEstimator::Options MscnDefaults() {
  MscnEstimator::Options o;
  o.model.epochs = 60;
  o.model.set_hidden = 96;
  o.model.final_hidden = 96;
  return o;
}

/// LW-NN defaults: deliberately lightweight (coarse histograms, small
/// net), matching its role as the least accurate model in the paper.
inline LwnnEstimator::Options LwnnDefaults() {
  LwnnEstimator::Options o;
  o.histogram_buckets = 12;
  o.hidden1 = 32;
  o.hidden2 = 16;
  o.epochs = 30;
  return o;
}

/// Naru defaults scaled for CPU inference.
inline NaruConfig NaruDefaults() {
  NaruConfig c;
  c.hidden = 64;
  c.epochs = 6;
  c.num_samples = 32;
  c.max_train_rows = Scaled(40000, 2000);
  return c;
}

/// The serving stack `bench_drift` and perf_gate_test drive: one LW-NN
/// trained once on the train split, one GuardedEstimator per shard over
/// it, and split conformal (q-error scoring) calibrated on the model's
/// batched calibration estimates. A guard keeps its own breaker state
/// and does not own its primary, so every shard shares the one immutable
/// model.
struct ServingStack {
  Splits splits;
  std::unique_ptr<LwnnEstimator> model;
  std::vector<std::unique_ptr<GuardedEstimator>> guards;
  std::vector<const GuardedEstimator*> shard_guards;
  std::unique_ptr<SplitConformal> scp;
  double num_rows = 0.0;
};

inline ServingStack BuildServingStack(const Table& table, int shards,
                                      double alpha) {
  ServingStack s;
  s.splits = MakeSplits(table);
  s.num_rows = static_cast<double>(table.num_rows());
  s.model = std::make_unique<LwnnEstimator>(LwnnDefaults());
  CONFCARD_CHECK(s.model->Train(table, s.splits.train).ok());
  for (int i = 0; i < shards; ++i) {
    s.guards.push_back(std::make_unique<GuardedEstimator>(*s.model, table));
    s.shard_guards.push_back(s.guards.back().get());
  }
  std::vector<Query> calib_q;
  std::vector<double> truths;
  for (const LabeledQuery& lq : s.splits.calib) {
    calib_q.push_back(lq.query);
    truths.push_back(lq.cardinality);
  }
  std::vector<double> estimates(calib_q.size());
  s.model->EstimateBatch(calib_q.data(), calib_q.size(), estimates.data());
  s.scp =
      std::make_unique<SplitConformal>(MakeScoring(ScoreKind::kQError), alpha);
  CONFCARD_CHECK(s.scp->Calibrate(estimates, truths).ok());
  return s;
}

inline void PrintScaleNote() {
  std::printf("scale=%.2f (set CONFCARD_SCALE to change workload sizes)\n",
              BenchScale());
}

}  // namespace bench
}  // namespace confcard

#endif  // CONFCARD_BENCH_BENCH_COMMON_H_
