// offline_pi: the Figure-1 pipeline. From a generated DMV table, label
// the train/calibration/test splits, train MSCN, Naru and LW-NN, and fit
// S-CP, JK-CV+, LW-S-CP and CQR (CQR for the supervised models only),
// at a fixed thread count. The serving layer is not involved.
//
// The pipeline repeats for the whole run and pi_fit_s is the median
// pipeline time. After each pipeline the fitted models answer the test
// split one query at a time (the latency metrics: MSCN is the light
// end, Naru's progressive sampling the heavy end). LW-NN, about 1 µs a
// query, is too short an operation to time one at a time on a shared
// host: its per-run median moved by 40% between otherwise identical
// runs.
//
// This workload is not in BENCHMARK.json: its compute-bound timings
// spread 0.1-0.38 (IQR over median) between runs on a shared 4-vCPU
// host. Its layers are measured in the traced serve_steady run through
// TracePipelineLayers. Besides the gated end-to-end metrics it prints
// pi_fit_s, the researcher's fit time.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "ce/lwnn.h"
#include "ce/mscn.h"
#include "ce/naru.h"
#include "common/check.h"
#include "common/parallel.h"
#include "conformal/interval.h"
#include "conformal/scoring.h"
#include "conformal/split.h"
#include "data/datasets.h"
#include "exec/scan.h"
#include "harness/single_table.h"
#include "query/workload.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

using confcard::CardinalityEstimator;
using confcard::LwnnEstimator;
using confcard::MethodResult;
using confcard::MscnEstimator;
using confcard::NaruEstimator;
using confcard::PiRow;
using confcard::Query;
using confcard::SingleTableHarness;
using confcard::Table;
using confcard::Workload;

// ---- Fixed configuration (stamped into every result). ----
constexpr double kAlpha = 0.1;
constexpr double kCoverageTolerance = 0.05;
constexpr size_t kRows = 40000;
constexpr uint64_t kDmvSeed = 7;  // the dataset is fixed; queries vary
constexpr size_t kTrainQueries = 600;
constexpr size_t kCalibQueries = 600;
constexpr size_t kTestQueries = 800;
constexpr double kMaxSelectivity = 0.2;
// The labeled splits are fixed, as in a fixed benchmark query set; the
// run seed drives the pipeline's own randomness: model initialization
// and the jackknife fold assignment.
constexpr uint64_t kQuerySeed = 1;
// Fitting runs ParallelFor on kThreads; answering is one query at a time
// on one thread, as an optimizer asks.
constexpr int kThreads = 2;
constexpr int kJkFolds = 5;
constexpr int kSetupReps = 9;
constexpr int kMinPipelines = 2;
constexpr int kAnswerPasses = 2;  // per pipeline
// Test split repeats per answer pass: an MSCN answer takes about 10 µs,
// a Naru answer about 300 µs, so MSCN repeats the split more often to
// span a comparable stretch of time.
constexpr int kLightReps = 4;
constexpr int kHeavyReps = 2;

MscnEstimator::Options MscnOptions(uint64_t seed) {
  MscnEstimator::Options o;
  o.model.seed += seed;
  o.model.epochs = 15;
  o.model.set_hidden = 96;
  o.model.final_hidden = 96;
  return o;
}

LwnnEstimator::Options LwnnOptions(uint64_t seed) {
  LwnnEstimator::Options o;
  o.seed += seed;
  o.histogram_buckets = 12;
  o.hidden1 = 32;
  o.hidden2 = 16;
  o.epochs = 30;
  return o;
}

confcard::NaruConfig NaruOptions(uint64_t seed) {
  confcard::NaruConfig c;
  c.seed += seed;
  c.hidden = 64;
  c.epochs = 2;
  c.num_samples = 32;
  c.max_train_rows = kRows;
  return c;
}

Workload Label(const Table& table, size_t n, uint64_t seed) {
  confcard::WorkloadConfig wc;
  wc.max_selectivity = kMaxSelectivity;
  wc.num_queries = n;
  wc.seed = seed;
  return confcard::GenerateWorkload(table, wc).value();
}

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

// Everything one pipeline produces; the models stay alive for the
// answer phase.
struct Fitted {
  std::unique_ptr<SingleTableHarness> harness;
  std::unique_ptr<MscnEstimator> mscn;
  std::unique_ptr<NaruEstimator> naru;
  std::unique_ptr<LwnnEstimator> lwnn;
  std::vector<MethodResult> results;
  double seconds = 0.0;
};

class Pipeline {
 public:
  Pipeline(const Table& table, uint64_t seed, SpanRecorder* spans)
      : table_(table), seed_(seed), spans_(spans) {}

  /// One end-to-end fit; spans are recorded when `trace` is set.
  Fitted Run(bool trace);

 private:
  template <typename Fn>
  auto Step(const char* name, Fn&& fn) {
    const int64_t start = NowNs();
    auto result = fn();
    if (trace_) {
      spans_->Record(spans_->Intern(name), start, NowNs(), root_);
    }
    return result;
  }

  const Table& table_;
  const uint64_t seed_;
  SpanRecorder* spans_;
  bool trace_ = false;
  int32_t root_ = -1;
};

Fitted Pipeline::Run(bool trace) {
  trace_ = trace;
  Fitted f;
  const int64_t start = NowNs();
  if (trace_) root_ = spans_->Open(spans_->Intern("pipeline"));
  Workload train = Step(
      "query.label", [&] { return Label(table_, kTrainQueries, kQuerySeed); });
  Workload calib = Step("query.label", [&] {
    return Label(table_, kCalibQueries, kQuerySeed + 1);
  });
  Workload test = Step("query.label", [&] {
    return Label(table_, kTestQueries, kQuerySeed + 2);
  });
  SingleTableHarness::Options ho;
  ho.alpha = kAlpha;
  ho.jk_folds = kJkFolds;
  ho.seed += seed_;
  f.harness = Step("harness.make", [&] {
    return std::make_unique<SingleTableHarness>(
        table_, std::move(train), std::move(calib), std::move(test), ho);
  });
  SingleTableHarness& h = *f.harness;
  const Workload& tr = h.train();

  f.mscn = Step("ce.train.mscn", [&] {
    auto m = std::make_unique<MscnEstimator>(MscnOptions(seed_));
    CONFCARD_CHECK(m->Train(table_, tr).ok());
    return m;
  });
  f.results.push_back(Step("harness.scp.mscn", [&] { return h.RunScp(*f.mscn); }));
  f.results.push_back(Step("harness.jkcv.mscn", [&] {
    return h.RunJkCv(*f.mscn, *f.mscn, /*simplified=*/true);
  }));
  f.results.push_back(
      Step("harness.lwscp.mscn", [&] { return h.RunLwScp(*f.mscn); }));
  f.results.push_back(Step("harness.cqr.mscn", [&] { return h.RunCqr(*f.mscn); }));

  f.naru = Step("ce.train.naru", [&] {
    auto m = std::make_unique<NaruEstimator>(NaruOptions(seed_));
    CONFCARD_CHECK(m->Train(table_).ok());
    return m;
  });
  f.results.push_back(Step("harness.scp.naru", [&] { return h.RunScp(*f.naru); }));
  f.results.push_back(
      Step("harness.jkcv.naru", [&] { return h.RunJkCvFixedModel(*f.naru); }));
  f.results.push_back(
      Step("harness.lwscp.naru", [&] { return h.RunLwScp(*f.naru); }));

  f.lwnn = Step("ce.train.lwnn", [&] {
    auto m = std::make_unique<LwnnEstimator>(LwnnOptions(seed_));
    CONFCARD_CHECK(m->Train(table_, tr).ok());
    return m;
  });
  f.results.push_back(Step("harness.scp.lwnn", [&] { return h.RunScp(*f.lwnn); }));
  f.results.push_back(Step("harness.jkcv.lwnn", [&] {
    return h.RunJkCv(*f.lwnn, *f.lwnn, /*simplified=*/true);
  }));
  f.results.push_back(
      Step("harness.lwscp.lwnn", [&] { return h.RunLwScp(*f.lwnn); }));
  f.results.push_back(Step("harness.cqr.lwnn", [&] { return h.RunCqr(*f.lwnn); }));

  if (trace_) spans_->Close(root_);
  f.seconds = Seconds(NowNs() - start);
  trace_ = false;
  return f;
}

// S-CP over `model`'s cached calibration estimates, for answering.
std::unique_ptr<confcard::SplitConformal> ScpFor(
    const SingleTableHarness& h, const CardinalityEstimator& model) {
  auto scp = std::make_unique<confcard::SplitConformal>(
      confcard::MakeScoring(confcard::ScoreKind::kResidual), kAlpha);
  std::vector<double> truths;
  for (const auto& lq : h.calib()) truths.push_back(lq.cardinality);
  CONFCARD_CHECK(scp->Calibrate(h.Estimates(model, h.calib()), truths).ok());
  return scp;
}

// Per-query answer latency (estimate + interval), closed loop, in µs.
std::vector<double> AnswerLatencies(const SingleTableHarness& h,
                                    const CardinalityEstimator& model,
                                    const confcard::SplitConformal& scp,
                                    double num_rows, int reps, double* sink) {
  std::vector<double> out;
  for (int rep = 0; rep < reps; ++rep) {
    for (const auto& lq : h.test()) {
      const int64_t a = NowNs();
      const confcard::Interval iv = confcard::ClipToCardinality(
          scp.Predict(model.EstimateCardinality(lq.query)), num_rows);
      const int64_t b = NowNs();
      *sink += iv.hi - iv.lo;
      out.push_back(static_cast<double>(b - a) * 1e-3);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

// Each method's guarantee: 1 - alpha, except jackknife+ (JK-CV+), whose
// guarantee is 1 - 2 alpha (Barber et al.).
void CheckResults(const std::vector<MethodResult>& results, Report* report) {
  for (const MethodResult& r : results) {
    bool finite = !r.rows.empty();
    for (const PiRow& row : r.rows) {
      finite = finite && std::isfinite(row.lo) && std::isfinite(row.hi);
    }
    if (!finite) ++report->failed;
    const bool jackknife = r.method.rfind("jk-cv+", 0) == 0;
    const double guarantee = 1.0 - (jackknife ? 2.0 : 1.0) * kAlpha;
    report->Check(finite && r.coverage >= guarantee - kCoverageTolerance,
                  r.model + "/" + r.method + " coverage " +
                      std::to_string(r.coverage) + " >= " +
                      std::to_string(guarantee) + " - " +
                      std::to_string(kCoverageTolerance) +
                      (finite ? ", widths finite" : ", NON-FINITE widths"));
  }
}

void ReportQuality(const std::vector<MethodResult>& results, double num_rows,
                   Report* report) {
  uint64_t rows = 0, covered = 0;
  double coverage_min = 1.0;
  std::vector<double> widths;
  for (const MethodResult& r : results) {
    coverage_min = std::min(coverage_min, r.coverage);
    for (const PiRow& row : r.rows) {
      ++rows;
      covered += row.covered() ? 1 : 0;
      widths.push_back(row.width() / num_rows);
    }
    std::fprintf(stderr, "%-6s %-10s coverage %.4f  median width/N %.5f\n",
                 r.model.c_str(), r.method.c_str(), r.coverage,
                 r.median_width_sel);
  }
  std::sort(widths.begin(), widths.end());
  report->E2e("coverage_answered",
              rows == 0 ? 0.0
                        : static_cast<double>(covered) /
                              static_cast<double>(rows),
              "ratio");
  report->E2e("coverage_min", coverage_min, "ratio");
  report->E2e("width_sel_median", Percentile(widths, 0.5), "ratio");
}

// Per-layer metrics of the traced pipeline `f`: MSCN and Naru training,
// every harness Run* call, and per-query inference on the test split.
void ReportPipelineLayers(const Fitted& f, SpanRecorder* spans,
                          Report* report) {
  std::vector<Query> queries;
  for (const auto& lq : f.harness->test()) queries.push_back(lq.query);
  std::vector<double> est(queries.size());
  const uint32_t n_infer = spans->Intern("ce.infer");
  for (const auto& [name, model] :
       {std::pair<const char*, const CardinalityEstimator*>{"mscn",
                                                             f.mscn.get()},
        {"naru", f.naru.get()}}) {
    const int64_t a = NowNs();
    model->EstimateBatch(queries.data(), queries.size(), est.data());
    const int64_t b = NowNs();
    spans->Record(n_infer, a, b);
    report->Layer(std::string("ce.infer_us_per_query.") + name,
                  static_cast<double>(b - a) * 1e-3 /
                      static_cast<double>(queries.size()),
                  "us");
  }
  const auto by_name = spans->ByName();
  auto self_s = [&](const std::string& name) {
    const auto it = by_name.find(name);
    return it == by_name.end() ? 0.0 : Seconds(it->second.self_ns);
  };
  for (const char* model : {"mscn", "naru", "lwnn"}) {
    const std::string m = model;
    if (m != "lwnn") {
      report->Layer("ce.train_s." + m, self_s("ce.train." + m), "s");
    }
    for (const char* method : {"scp", "jkcv", "lwscp", "cqr"}) {
      report->Layer(std::string("harness.") + method + "_s." + m,
                    self_s(std::string("harness.") + method + "." + m), "s");
    }
  }
}

}  // namespace

void TracePipelineLayers(const RunOptions& options, Report* report,
                         SpanRecorder* spans) {
  report->stamp["pipeline"] =
      "DMV " + std::to_string(kRows) + " rows, " +
      std::to_string(kTrainQueries) + "/" + std::to_string(kCalibQueries) +
      "/" + std::to_string(kTestQueries) + " queries, " +
      std::to_string(kJkFolds) + " folds, " + std::to_string(kThreads) +
      " threads";
  confcard::SetThreads(kThreads);
  const Table table = confcard::MakeDmv(kRows, kDmvSeed).value();
  const Fitted f = Pipeline(table, options.seed, spans).Run(/*trace=*/true);
  CheckResults(f.results, report);
  report->attempted += f.results.size();
  ReportPipelineLayers(f, spans, report);
}

void RunOffline(const RunOptions& options, Report* report,
                SpanRecorder* spans) {
  report->stamp["rows"] = std::to_string(kRows);
  report->stamp["queries"] = std::to_string(kTrainQueries) + "/" +
                             std::to_string(kCalibQueries) + "/" +
                             std::to_string(kTestQueries);
  report->stamp["jk_folds"] = std::to_string(kJkFolds);
  report->stamp["alpha"] = std::to_string(kAlpha);
  report->stamp["threads"] = std::to_string(kThreads) + " (answering: 1)";
  confcard::SetThreads(kThreads);
  const int64_t run_start = NowNs();

  // Set-up: generate the table, kSetupReps times.
  std::vector<double> setup_s;
  std::unique_ptr<Table> table;
  const int setup_reps = options.trace ? 1 : kSetupReps;
  for (int rep = 0; rep < setup_reps; ++rep) {
    const int64_t start = NowNs();
    table = std::make_unique<Table>(confcard::MakeDmv(kRows, kDmvSeed).value());
    const int64_t end = NowNs();
    setup_s.push_back(Seconds(end - start));
    if (options.trace) spans->Record(spans->Intern("data.table_gen"), start, end);
  }
  const double num_rows = static_cast<double>(table->num_rows());
  Pipeline pipeline(*table, options.seed, spans);
  double sink = 0.0;

  if (options.trace) {
    // One untraced and one traced pipeline: the difference is the
    // tracing overhead.
    const Fitted untraced = pipeline.Run(/*trace=*/false);
    Fitted f = pipeline.Run(/*trace=*/true);
    CheckResults(f.results, report);
    report->attempted += f.results.size();
    report->Layer("trace.overhead_fraction",
                  f.seconds / untraced.seconds - 1.0, "ratio");
    ReportPipelineLayers(f, spans, report);
    // Exact-count cost on the test split.
    std::vector<Query> queries;
    for (const auto& lq : f.harness->test()) queries.push_back(lq.query);
    uint64_t total = 0;
    const int64_t a = NowNs();
    for (const Query& q : queries) total += confcard::CountMatches(*table, q);
    const int64_t b = NowNs();
    spans->Record(spans->Intern("exec.count"), a, b);
    sink += static_cast<double>(total);
    report->Layer("exec.count_us_per_query",
                  static_cast<double>(b - a) * 1e-3 /
                      static_cast<double>(queries.size()),
                  "us");
    const auto by_name = spans->ByName();
    auto self_s = [&](const std::string& name) {
      const auto it = by_name.find(name);
      return it == by_name.end() ? 0.0 : Seconds(it->second.self_ns);
    };
    report->Layer("data.table_gen_s", self_s("data.table_gen"), "s");
    report->Layer("query.label_s", self_s("query.label"), "s");
    report->Layer("ce.train_s.lwnn", self_s("ce.train.lwnn"), "s");
    // The steps tile the pipeline: their self times plus the pipeline's
    // own (unattributed) self time add up to the traced end-to-end time.
    int64_t path_ns = 0;
    for (const auto& [name, t] : by_name) {
      if (name == "pipeline" || name.rfind("query.", 0) == 0 ||
          name.rfind("ce.train.", 0) == 0 || name.rfind("harness.", 0) == 0) {
        path_ns += t.self_ns;
      }
    }
    const double path_sum = Seconds(path_ns) / untraced.seconds;
    report->Layer("trace.path_sum_fraction", path_sum, "ratio");
    report->Check(PathSumAddsUp(path_sum, f.seconds / untraced.seconds - 1.0,
                                kPathSumTolerance),
                  "traced pipeline step self times add up to the untraced "
                  "pipeline time within trace.overhead_fraction + " +
                      std::to_string(kPathSumTolerance));
    report->Layer("trace.unattributed_fraction",
                  self_s("pipeline") / f.seconds, "ratio");
  } else {
    report->E2e("setup_s", Median(setup_s), "s");
    // Until the run's time is up (at least kMinPipelines times): fit the
    // whole pipeline, then answer the test split with what it fitted,
    // kAnswerPasses times. Interleaving keeps one noisy stretch of the
    // run from deciding every pass of either kind.
    std::vector<double> fit_s, p50_low, p50_high;
    size_t min_samples = std::numeric_limits<size_t>::max();
    Fitted f;
    while (static_cast<int>(fit_s.size()) < kMinPipelines ||
           Seconds(NowNs() - run_start) < options.seconds) {
      confcard::SetThreads(kThreads);
      f = pipeline.Run(/*trace=*/false);
      fit_s.push_back(f.seconds);
      std::fprintf(stderr, "pipeline %zu: %.3f s\n", fit_s.size(), f.seconds);
      CheckResults(f.results, report);
      report->attempted += f.results.size();

      confcard::SetThreads(1);
      const SingleTableHarness& h = *f.harness;
      const auto scp_mscn = ScpFor(h, *f.mscn);
      const auto scp_naru = ScpFor(h, *f.naru);
      for (int pass = 0; pass < kAnswerPasses; ++pass) {
        const auto low = AnswerLatencies(h, *f.mscn, *scp_mscn, num_rows,
                                         kLightReps, &sink);
        const auto high = AnswerLatencies(h, *f.naru, *scp_naru, num_rows,
                                          kHeavyReps, &sink);
        min_samples = std::min({min_samples, low.size(), high.size()});
        report->attempted += low.size() + high.size();
        p50_low.push_back(Percentile(low, 0.5));
        p50_high.push_back(Percentile(high, 0.5));
      }
    }
    report->Check(Supported(min_samples, 0.5),
                  "every answer pass's p50 has >= 10 samples beyond it");
    report->E2e("pi_fit_s", Median(fit_s), "s");
    ReportQuality(f.results, num_rows, report);
    // As on the serving workloads: the median answer pass.
    report->E2e("latency_p50_us.low", Median(p50_low), "us");
    report->E2e("latency_p50_us.high", Median(p50_high), "us");
  }
  // Publishing what the timed calls computed keeps them from being
  // optimized away.
  report->stamp["answer_checksum"] = std::to_string(sink);
}

}  // namespace perfbench
