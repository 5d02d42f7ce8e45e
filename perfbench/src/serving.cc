// serve_steady and serve_drift_feedback: open-loop Poisson arrivals at
// fixed absolute rates into ServeFrontEnd, from one producer thread
// that only submits; a collector thread harvests the responses.
//
// Open-loop accounting: every request is timed from its scheduled send
// time to the publication of its response (Request::submitted_at +
// Response::total_us), so a stall also delays the requests scheduled
// behind it. The producer records how late it sent each request and how
// many requests were due but unsent. Shed and rejected requests fail and
// count as +inf latency. Coverage and width are over answered requests
// (neither shed nor degraded); degraded answers are counted apart.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ce/guarded.h"
#include "ce/lwnn.h"
#include "ce/residual.h"
#include "common/check.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "conformal/interval.h"
#include "conformal/online.h"
#include "conformal/scoring.h"
#include "conformal/split.h"
#include "data/datasets.h"
#include "data/drift.h"
#include "exec/scan.h"
#include "host.h"
#include "query/workload.h"
#include "serve/serve.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

using confcard::GuardBatchScratch;
using confcard::GuardedEstimate;
using confcard::GuardedEstimator;
using confcard::Interval;
using confcard::LabeledQuery;
using confcard::LwnnEstimator;
using confcard::Query;
using confcard::SplitConformal;
using confcard::Table;
using confcard::Workload;
using confcard::serve::Admit;
using confcard::serve::Request;
using confcard::serve::ServeFrontEnd;

// ---- Fixed configuration (stamped into every result). ----
constexpr double kAlpha = 0.1;
constexpr double kCoverageTolerance = 0.05;
constexpr size_t kRows = 40000;
constexpr uint64_t kDmvSeed = 3;  // the dataset is fixed; queries vary
constexpr size_t kTrainQueries = 1500;
constexpr size_t kCalibQueries = 1500;
constexpr size_t kTestQueries = 800;
constexpr double kMaxSelectivity = 0.2;
// The query workloads are fixed, as in a fixed benchmark query set; the
// run seed drives the request sequence (order and arrival times).
constexpr uint64_t kQuerySeed = 1;
constexpr uint64_t kDriftStreamSeed = 21;
constexpr size_t kDriftStreamQueries = 2000;
constexpr int kShards = 2;
constexpr int kMaxBatch = 32;
constexpr int kFlushUs = 200;
// In-flight request slots of the producer: it waits for a free slot
// before it sends, so no more than kRing requests are ever in flight.
// That covers what arrives while the workers or the collector are
// descheduled (a 10 ms stall at the top of the ladder is 28k requests).
constexpr size_t kRing = 32768;
// Each shard's queue holds every request that can be in flight, so a
// host stall shows as queueing latency (timed from the scheduled send)
// and never as queue-full shedding, whose count would vary with the
// host's stalls from run to run.
constexpr size_t kQueueCapacity = kRing;
constexpr size_t kFeedbackCapacity = 1024;
constexpr double kLowQps = 100e3;
// .high: batches fill before the flush timeout. The feedback workload
// does twice the worker work per request (every answer is observed and
// re-estimated at a batch boundary), so its knee, and its .high, are
// lower.
constexpr double kHighQps = 600e3;
constexpr double kHighQpsFeedback = 300e3;
// Absolute offered rates; never derived from a capacity probe.
constexpr double kLadderQps[] = {100e3,  200e3,  300e3,  400e3,  500e3,
                                 600e3,  700e3,  800e3,  900e3,  1000e3,
                                 1200e3, 1400e3, 1600e3, 1800e3, 2000e3,
                                 2400e3, 2800e3};
constexpr double kRungSeconds = 0.25;
constexpr double kP99LimitUs = 1000.0;
constexpr int kSetupReps = 3;
// Set-up (labeling, training) runs ParallelFor on kSetupThreads; while
// the front end runs, the process holds the producer, kShards workers
// and the mostly idle collector, so ParallelFor runs inline and the
// total stays within nproc.
constexpr int kSetupThreads = 2;
constexpr int kRounds = 24;
constexpr double kWarmSeconds = 1.0;
constexpr int kCollectSleepUs = 50;
constexpr size_t kIdentityWindow = 64;
constexpr uint64_t kTraceEvery = 16;  // traced passes sample 1/16 requests
constexpr int kTraceRounds = 3;
constexpr size_t kMicroBatch = 32;
constexpr int kMicroReps = 200;

LwnnEstimator::Options LwnnOptions() {
  LwnnEstimator::Options o;
  o.histogram_buckets = 12;
  o.hidden1 = 32;
  o.hidden2 = 16;
  o.epochs = 30;
  return o;
}

confcard::TableSpec DriftBaseSpec() {
  confcard::TableSpec spec;
  spec.name = "drift_base";
  spec.num_rows = kRows;
  spec.seed = 7;
  confcard::ColumnSpec c0;
  c0.name = "make";
  c0.kind = confcard::ColumnKind::kCategorical;
  c0.domain_size = 60;
  c0.zipf_skew = 0.8;
  confcard::ColumnSpec c1;
  c1.name = "model";
  c1.kind = confcard::ColumnKind::kCategorical;
  c1.domain_size = 40;
  c1.zipf_skew = 0.4;
  c1.parent = 0;
  c1.correlation = 0.6;
  confcard::ColumnSpec c2;
  c2.name = "weight";
  c2.kind = confcard::ColumnKind::kNumeric;
  c2.num_min = 0.0;
  c2.num_max = 1000.0;
  spec.columns = {c0, c1, c2};
  return spec;
}

std::vector<confcard::drift::DriftSpec> DriftSpecs() {
  using confcard::drift::DriftKind;
  return {{DriftKind::kUpdate, 1.0, 0.4},
          {DriftKind::kZipf, 1.0, 0.4},
          {DriftKind::kTemplate, 0.5, 0.4}};
}

Workload Label(const Table& table, size_t n, uint64_t seed) {
  confcard::WorkloadConfig wc;
  wc.max_selectivity = kMaxSelectivity;
  wc.num_queries = n;
  wc.seed = seed;
  return confcard::GenerateWorkload(table, wc).value();
}

// Runs fn and returns its wall time in seconds; records a span named
// `name` when tracing.
template <typename Fn>
double Timed(SpanRecorder* spans, const char* name, int32_t parent, Fn&& fn) {
  const int64_t start = NowNs();
  fn();
  const int64_t end = NowNs();
  if (spans != nullptr) spans->Record(spans->Intern(name), start, end, parent);
  return static_cast<double>(end - start) * 1e-9;
}

// ------------------------------------------------------------------
// The serving stack and its set-up.
// ------------------------------------------------------------------

struct Stack {
  std::unique_ptr<Table> table;                          // serve_steady
  std::unique_ptr<confcard::drift::DriftStream> stream;  // drift
  const Table* train_table = nullptr;
  Workload train, calib, test;
  Workload pool;  // what timed passes serve, cycled
  Workload warm;  // served once, in order, before timing
  std::vector<std::unique_ptr<LwnnEstimator>> replicas;
  std::vector<std::unique_ptr<GuardedEstimator>> guards;
  std::vector<const GuardedEstimator*> shard_guards;
  std::unique_ptr<SplitConformal> scp;
  std::unique_ptr<ServeFrontEnd> front;
  double num_rows = 0.0;

  double setup_s = 0.0;   // everything below except the identity check
  double fit_s = 0.0;     // label + train + calibrate (part of setup_s)
};

ServeFrontEnd::Options FrontOptions(bool feedback) {
  ServeFrontEnd::Options o;
  o.max_batch = kMaxBatch;
  o.flush_timeout_us = kFlushUs;
  o.queue_capacity = kQueueCapacity;
  o.feedback = feedback;
  o.feedback_capacity = kFeedbackCapacity;
  return o;
}

// ------------------------------------------------------------------
// One open-loop pass.
// ------------------------------------------------------------------

struct PassSpec {
  double qps = 0.0;
  double seconds = 0.0;
  uint64_t seed = 0;
  bool observe = false;  // feed every served request's truth to Observe
  bool trace = false;
};

struct PassResult {
  double offered_qps = 0.0;
  Tally tally;
  std::vector<double> latency_us;  // per attempted; +inf when failed
  std::vector<double> width_sel;   // answered only
  std::vector<double> queue_us;    // served (not shed)
  std::vector<double> service_us;  // served (not shed)
  std::vector<double> lateness_us;
  // Requests due but not yet answered, at evenly spaced instants.
  std::vector<double> outstanding;
  uint64_t gen_backlog_max = 0;
  double achieved_qps = 0.0;
  double wall_s = 0.0;
  uint64_t observe_calls = 0;
  uint64_t feedback_dropped = 0;
  std::vector<uint64_t> batch_counts;
  uint64_t hot_path_allocs = 0;
  int drift_stage_max = 0;
  // Traced passes only.
  std::vector<double> submit_ns;
  std::vector<double> observe_ns;
};

// The producer thread only schedules and submits. A collector thread
// harvests responses in send order and does every per-response step
// (bookkeeping, coverage, spans, Observe), so the offered rate is not
// capped by the benchmark's own per-response work. The collector
// sleeps whenever no response is ready, so the process holds the
// producer, kShards workers and a mostly idle collector.
class Producer {
 public:
  Producer() : ring_(kRing), meta_(kRing) {}

  PassResult Run(ServeFrontEnd* front, const Workload& pool, double num_rows,
                 const PassSpec& spec, size_t* cursor, SpanRecorder* spans,
                 uint64_t* request_ids);

 private:
  struct Meta {
    int64_t sched_ns = 0;
    int64_t call_ns = 0;
    int64_t return_ns = 0;  // traced requests only: Submit's return
    uint32_t pool_index = 0;
    Admit admit = Admit::kAccepted;
    uint64_t request_id = 0;
  };
  std::vector<Request> ring_;
  std::vector<Meta> meta_;
};

PassResult Producer::Run(ServeFrontEnd* front, const Workload& pool,
                         double num_rows, const PassSpec& spec,
                         size_t* cursor, SpanRecorder* spans,
                         uint64_t* request_ids) {
  PassResult out;
  out.offered_qps = spec.qps;
  const size_t n = std::max<size_t>(
      1, static_cast<size_t>(spec.qps * spec.seconds));
  out.latency_us.reserve(n);
  out.width_sel.reserve(n);
  out.queue_us.reserve(n);
  out.service_us.reserve(n);
  out.lateness_us.reserve(n);
  const int64_t feedback_dropped_before =
      static_cast<int64_t>(front->FeedbackDropped());
  front->ResetStats();

  // The whole arrival schedule is drawn up front (seeded exponential
  // gaps), so due-but-unsent requests can be counted exactly.
  std::vector<int64_t> sched(n);
  confcard::Rng rng(spec.seed);
  double arrival_ns = 0.0;
  for (size_t i = 0; i < n; ++i) {
    arrival_ns += -std::log1p(-rng.NextDouble()) * 1e9 / spec.qps;
    sched[i] = static_cast<int64_t>(arrival_ns);
  }
  // The clock starts only once the schedule is built.
  const int64_t t0 = NowNs() + 200'000;  // 200 µs lead
  for (int64_t& t : sched) t += t0;

  const bool tracing = spec.trace && spans != nullptr;
  uint32_t n_request = 0, n_lateness = 0, n_admit = 0, n_queue = 0,
           n_service = 0, n_submit = 0, n_observe = 0;
  if (tracing) {
    n_request = spans->Intern("request");
    n_lateness = spans->Intern("gen.lateness");
    n_admit = spans->Intern("serve.admit");
    n_queue = spans->Intern("serve.queue_wait");
    n_service = spans->Intern("serve.service");
    n_submit = spans->Intern("serve.submit");
    n_observe = spans->Intern("serve.observe");
  }

  // Slots [harvested, sent) are in flight. The producer publishes a
  // slot by advancing `sent` and reuses it only once `harvested` has
  // passed it.
  std::atomic<size_t> sent{0};
  std::atomic<size_t> harvested{0};
  int64_t first_sched = sched[0];
  int64_t last_publish = first_sched;
  auto harvest_one = [&](size_t h) {
    const size_t slot = h % kRing;
    const Request& r = ring_[slot];
    const Meta& m = meta_[slot];
    const confcard::serve::Response& resp = r.response;
    const LabeledQuery& lq = pool[m.pool_index];
    const bool sampled = tracing && m.request_id % kTraceEvery == 0;
    if (sampled) {
      out.submit_ns.push_back(static_cast<double>(m.return_ns - m.call_ns));
      spans->Record(n_submit, m.call_ns, m.return_ns, -1, m.request_id);
    }
    ++out.tally.attempted;
    if (resp.shed) {
      if (m.admit == Admit::kRejectedStopped) {
        ++out.tally.rejected;
      } else {
        ++out.tally.shed;
      }
      out.latency_us.push_back(std::numeric_limits<double>::infinity());
      return;
    }
    const int64_t submitted = ToNs(r.submitted_at);
    const int64_t dispatch =
        submitted + static_cast<int64_t>(std::llround(resp.queue_us * 1e3));
    const int64_t publish =
        submitted + static_cast<int64_t>(std::llround(resp.total_us * 1e3));
    last_publish = std::max(last_publish, publish);
    out.latency_us.push_back(static_cast<double>(publish - m.sched_ns) * 1e-3);
    out.queue_us.push_back(resp.queue_us);
    out.service_us.push_back(resp.total_us - resp.queue_us);
    if (resp.degraded) {
      ++out.tally.degraded;
    } else {
      ++out.tally.answered;
      out.width_sel.push_back((resp.hi - resp.lo) / num_rows);
      if (resp.lo <= lq.cardinality && lq.cardinality <= resp.hi) {
        ++out.tally.covered;
      }
    }
    if (sampled) {
      // The worker-side spans are rebuilt from the Response timestamps,
      // so they tile [sched, publish] by construction.
      const int32_t root = spans->Record(n_request, m.sched_ns, publish, -1,
                                         m.request_id);
      spans->Record(n_lateness, m.sched_ns, m.call_ns, root, m.request_id);
      spans->Record(n_admit, m.call_ns, submitted, root, m.request_id);
      spans->Record(n_queue, submitted, dispatch, root, m.request_id);
      spans->Record(n_service, dispatch, publish, root, m.request_id);
    }
    if (spec.observe) {
      ++out.observe_calls;
      if (sampled) {
        const int64_t a = NowNs();
        front->Observe(lq.query, lq.cardinality);
        const int64_t b = NowNs();
        out.observe_ns.push_back(static_cast<double>(b - a));
        spans->Record(n_observe, a, b, -1, m.request_id);
      } else {
        front->Observe(lq.query, lq.cardinality);
      }
    }
  };
  std::thread collector([&] {
    size_t h = 0;
    while (h < n) {
      const size_t limit = sent.load(std::memory_order_acquire);
      size_t took = 0;
      while (h < limit && ring_[h % kRing].done()) {
        harvest_one(h++);
        harvested.store(h, std::memory_order_release);
        ++took;
      }
      if (took == 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(kCollectSleepUs));
      }
    }
  });

  size_t due = 0;  // arrivals whose scheduled time has passed
  for (size_t i = 0; i < n; ++i) {
    while (i - harvested.load(std::memory_order_acquire) >= kRing) {
      confcard::CpuRelax();
    }
    int64_t now = NowNs();
    while (now < sched[i]) {
      confcard::CpuRelax();
      now = NowNs();
    }
    while (due < n && sched[due] <= now) ++due;
    out.gen_backlog_max =
        std::max<uint64_t>(out.gen_backlog_max, due - (i + 1));
    out.lateness_us.push_back(static_cast<double>(now - sched[i]) * 1e-3);

    const size_t slot = i % kRing;
    Request& r = ring_[slot];
    Meta& m = meta_[slot];
    m.sched_ns = sched[i];
    m.call_ns = now;
    m.pool_index = static_cast<uint32_t>(*cursor % pool.size());
    m.request_id = (*request_ids)++;
    ++*cursor;
    r.Reset();
    r.query = pool[m.pool_index].query;
    m.admit = front->Submit(&r);
    if (tracing && m.request_id % kTraceEvery == 0) m.return_ns = NowNs();
    sent.store(i + 1, std::memory_order_release);
  }
  collector.join();
  // Backlog of the open loop, rebuilt from the schedule and the
  // publication times: requests due by t minus responses published by
  // t (a failed request answers at once).
  {
    std::vector<int64_t> published(n);
    for (size_t i = 0; i < n; ++i) {
      const double lat = out.latency_us[i];
      published[i] = sched[i] + (std::isfinite(lat)
                                     ? static_cast<int64_t>(lat * 1e3)
                                     : 0);
    }
    std::sort(published.begin(), published.end());
    constexpr int kSamples = 64;
    for (int k = 1; k <= kSamples; ++k) {
      const int64_t t = sched[0] + (sched[n - 1] - sched[0]) * k / kSamples;
      const auto due = std::upper_bound(sched.begin(), sched.end(), t) -
                       sched.begin();
      const auto done = std::upper_bound(published.begin(), published.end(),
                                         t) -
                        published.begin();
      out.outstanding.push_back(static_cast<double>(due - done));
    }
  }
  out.wall_s = static_cast<double>(last_publish - first_sched) * 1e-9;
  const uint64_t served = out.tally.attempted - out.tally.failed();
  out.achieved_qps =
      out.wall_s > 0.0 ? static_cast<double>(served) / out.wall_s : 0.0;

  // Every response is published; give the workers a moment to finish
  // their batch bookkeeping before reading the quiesced-only stats.
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  out.batch_counts = front->BatchSizeCounts();
  out.hot_path_allocs = front->HotPathAllocs();
  out.feedback_dropped = static_cast<uint64_t>(
      static_cast<int64_t>(front->FeedbackDropped()) -
      feedback_dropped_before);
  for (int s = 0; s < front->num_shards(); ++s) {
    out.drift_stage_max =
        std::max(out.drift_stage_max, static_cast<int>(front->ShardStage(s)));
  }
  return out;
}

// A percentile that lands on a failed (+inf) request reports the pass's
// wall time: the request was not served while the pass ran.
double FinitePercentile(const PassResult& pass, double q) {
  const double v = PercentileOf(pass.latency_us, q);
  return std::isfinite(v) ? v : pass.wall_s * 1e6;
}

bool GeneratorKeptUp(const PassResult& pass) {
  return PercentileOf(pass.lateness_us, 0.9) <=
         LadderRule().lateness_p90_limit_us;
}

RungResult ToRung(const PassResult& pass, const LadderRule& rule) {
  RungResult rung;
  rung.offered_qps = pass.offered_qps;
  rung.achieved_qps = pass.achieved_qps;
  rung.p99_us = PercentileOf(pass.latency_us, 0.99);
  rung.attempted = pass.tally.attempted;
  rung.failed = pass.tally.failed();
  rung.windows_within_limit =
      WindowsWithinLimit(pass.latency_us, pass.lateness_us, rule);
  rung.backlog_grows = BacklogGrows(pass.outstanding, 1.5,
                                    static_cast<double>(kMaxBatch * kShards));
  return rung;
}

// ------------------------------------------------------------------
// Set-up, correctness checks and the workload runner.
// ------------------------------------------------------------------

class ServingWorkload {
 public:
  ServingWorkload(const RunOptions& options, bool drift, Report* report,
                  SpanRecorder* spans)
      : options_(options),
        drift_(drift),
        high_qps_(drift ? kHighQpsFeedback : kHighQps),
        report_(report),
        spans_(spans) {}

  void Run();

 private:
  std::unique_ptr<Stack> Build(SpanRecorder* spans);
  double Fit(Stack* stack, SpanRecorder* spans);
  void CheckBitIdentity(const Stack& stack);
  PassResult Pass(Stack* stack, double qps, double seconds, bool trace);
  void Measure(Stack* stack);
  void Trace(Stack* stack);
  double SustainedQps(Stack* stack);
  void LayerMicrobenchmarks(const Stack& stack);

  const RunOptions options_;
  const bool drift_;
  const double high_qps_;
  Report* report_;
  SpanRecorder* spans_;
  Producer producer_;
  size_t cursor_ = 0;
  uint64_t request_ids_ = 0;
  uint64_t pass_seq_ = 0;
};

std::unique_ptr<Stack> ServingWorkload::Build(SpanRecorder* spans) {
  auto s = std::make_unique<Stack>();
  const int64_t start = NowNs();
  if (drift_) {
    Timed(spans, "data.drift_stream", -1, [&] {
      confcard::drift::DriftStreamOptions so;
      so.num_queries = kDriftStreamQueries;
      so.workload.max_selectivity = kMaxSelectivity;
      so.seed = kDriftStreamSeed;
      s->stream = std::make_unique<confcard::drift::DriftStream>(
          confcard::drift::GenerateDriftStream(DriftBaseSpec(), so,
                                               DriftSpecs())
              .value());
    });
    s->train_table = &s->stream->pre_table;
    const Workload& st = s->stream->stream;
    s->warm.assign(st.begin(), st.end());
    s->pool.assign(st.begin() + static_cast<std::ptrdiff_t>(
                                    s->stream->onset_index),
                   st.end());
  } else {
    Timed(spans, "data.table_gen", -1, [&] {
      s->table = std::make_unique<Table>(
          confcard::MakeDmv(kRows, kDmvSeed).value());
    });
    s->train_table = s->table.get();
  }
  s->num_rows = static_cast<double>(s->train_table->num_rows());
  s->fit_s = Fit(s.get(), spans);
  if (!drift_) {
    // The run seed orders the requests: the test split is served in a
    // seeded permutation (and arrivals are seeded per pass). The drift
    // segment keeps its stream order, which the adaptation follows.
    s->pool = s->test;
    confcard::Rng order(options_.seed);
    std::shuffle(s->pool.begin(), s->pool.end(), order);
  }
  s->setup_s = static_cast<double>(NowNs() - start) * 1e-9;
  return s;
}

// Labels the splits, trains one replica per shard and calibrates S-CP
// on the stack's table; returns the wall time.
double ServingWorkload::Fit(Stack* s, SpanRecorder* spans) {
  const Table& table = *s->train_table;
  double seconds = Timed(spans, "query.label", -1, [&] {
    s->train = Label(table, kTrainQueries, kQuerySeed);
    s->calib = Label(table, kCalibQueries, kQuerySeed + 1);
    s->test = Label(table, kTestQueries, kQuerySeed + 2);
  });
  // One identically trained replica per shard, as ServeFrontEnd expects.
  for (int i = 0; i < kShards; ++i) {
    auto model = std::make_unique<LwnnEstimator>(LwnnOptions());
    seconds += Timed(spans, "ce.train.lwnn", -1, [&] {
      CONFCARD_CHECK(model->Train(table, s->train).ok());
    });
    seconds += Timed(spans, "ce.guard_build", -1, [&] {
      s->guards.push_back(std::make_unique<GuardedEstimator>(*model, table));
    });
    s->shard_guards.push_back(s->guards.back().get());
    s->replicas.push_back(std::move(model));
  }
  seconds += Timed(spans, "conformal.calibrate", -1, [&] {
    std::vector<Query> queries;
    std::vector<double> truths;
    for (const LabeledQuery& lq : s->calib) {
      queries.push_back(lq.query);
      truths.push_back(lq.cardinality);
    }
    std::vector<double> estimates(queries.size());
    s->replicas[0]->EstimateBatch(queries.data(), queries.size(),
                                  estimates.data());
    s->scp = std::make_unique<SplitConformal>(
        confcard::MakeScoring(confcard::ScoreKind::kQError), kAlpha);
    CONFCARD_CHECK(s->scp->Calibrate(estimates, truths).ok());
  });
  return seconds;
}

void ServingWorkload::CheckBitIdentity(const Stack& s) {
  // A feedback-off front end over the same guards serves the test split
  // with at most kIdentityWindow requests outstanding, so the queue
  // cannot overflow whatever the sample size.
  ServeFrontEnd front(s.shard_guards, *s.scp, s.num_rows,
                      FrontOptions(/*feedback=*/false));
  const size_t n = s.test.size();
  std::vector<Request> requests(n);
  size_t mismatches = 0;
  size_t waited = 0;
  uint64_t rejected = 0;
  auto check = [&](size_t i) {
    requests[i].Wait();
    const GuardedEstimate ref = s.shard_guards[0]->EstimateGuarded(
        s.test[i].query);
    const Interval iv =
        confcard::ClipToCardinality(s.scp->Predict(ref.value), s.num_rows);
    const confcard::serve::Response& resp = requests[i].response;
    if (resp.shed || resp.degraded || resp.estimate != ref.value ||
        resp.lo != iv.lo || resp.hi != iv.hi) {
      ++mismatches;
    }
  };
  for (size_t i = 0; i < n; ++i) {
    if (i - waited >= kIdentityWindow) check(waited++);
    requests[i].query = s.test[i].query;
    if (front.Submit(&requests[i]) != Admit::kAccepted) ++rejected;
  }
  while (waited < n) check(waited++);
  front.Stop();
  report_->attempted += n;
  report_->failed += rejected;
  report_->Check(mismatches == 0 && rejected == 0,
                 "bit-identity: " + std::to_string(n) +
                     " served answers equal per-query EstimateGuarded + "
                     "SplitConformal::Predict (" +
                     std::to_string(mismatches) + " mismatches, " +
                     std::to_string(rejected) + " shed)");
}

PassResult ServingWorkload::Pass(Stack* s, double qps, double seconds,
                                 bool trace) {
  PassSpec spec;
  spec.qps = qps;
  spec.seconds = seconds;
  spec.seed = options_.seed * 1000 + ++pass_seq_;
  spec.observe = drift_;
  spec.trace = trace;
  return producer_.Run(s->front.get(), s->pool, s->num_rows, spec, &cursor_,
                       spans_, &request_ids_);
}

void ServingWorkload::Run() {
  const int64_t t_start = NowNs();
  // Set up kSetupReps times (the last stack is kept) and report the
  // median. Set-up includes starting the front end and the warm pass.
  const int reps = options_.trace ? 1 : kSetupReps;
  std::vector<double> setup_s;
  std::unique_ptr<Stack> stack;
  for (int rep = 0; rep < reps; ++rep) {
    if (stack != nullptr) stack->front->Stop();
    stack.reset();
    confcard::SetThreads(kSetupThreads);
    stack = Build(options_.trace ? spans_ : nullptr);
    if (rep == reps - 1) CheckBitIdentity(*stack);  // not timed
    const int64_t start = NowNs();
    // From here on the process runs the producer and kShards workers;
    // inline ParallelFor keeps it within nproc threads.
    confcard::SetThreads(1);
    stack->front = std::make_unique<ServeFrontEnd>(
        stack->shard_guards, *stack->scp, stack->num_rows,
        FrontOptions(drift_));
    if (drift_) stack->front->WarmupFeedback(stack->calib);
    // Warm pass: the drift stream once in order, then the timed pool at
    // both rates, so arenas, queue cells and the drift ladder are warm.
    if (drift_) {
      PassSpec warm;
      warm.qps = kLowQps;
      warm.seconds = static_cast<double>(stack->warm.size()) / kLowQps;
      warm.seed = options_.seed * 1000;
      warm.observe = true;
      size_t warm_cursor = 0;
      producer_.Run(stack->front.get(), stack->warm, stack->num_rows, warm,
                    &warm_cursor, nullptr, &request_ids_);
    }
    Pass(stack.get(), high_qps_, kWarmSeconds, false);
    Pass(stack.get(), kLowQps, kWarmSeconds / 2, false);
    stack->setup_s += static_cast<double>(NowNs() - start) * 1e-9;
    setup_s.push_back(stack->setup_s);
    std::fprintf(stderr, "fit (label, train, calibrate) %.3f s\n",
                 stack->fit_s);
  }
  for (const double v : setup_s) std::fprintf(stderr, "setup %.3f s\n", v);

  if (options_.trace) {
    Trace(stack.get());
  } else {
    report_->E2e("setup_s", Median(setup_s), "s");
    Measure(stack.get());
  }
  stack->front->Stop();
  // The front end's workers have exited, so the pipeline gets the CPUs.
  if (options_.trace && !drift_) {
    TracePipelineLayers(options_, report_, spans_);
  }
  std::fprintf(stderr, "workload wall time %.2f s\n",
               static_cast<double>(NowNs() - t_start) * 1e-9);
}

void ServingWorkload::Measure(Stack* s) {
  // kRounds rounds of a low-rate and a high-rate pass. Each latency
  // metric is the median over the rounds of the pass's percentile: a
  // host stall (vCPU steal) that inflates a minority of passes does not
  // move it, while a regression that slows the serving path in most
  // passes does. The p99s and the best pass are printed as diagnostics.
  const double pass_s = options_.seconds / (2.0 * kRounds);
  std::vector<double> p50_low, p99_low, p50_high, p99_high, coverage;
  Tally total;
  std::vector<double> widths;
  size_t min_samples = std::numeric_limits<size_t>::max();
  for (int round = 0; round < kRounds; ++round) {
    for (const bool high : {false, true}) {
      PassResult pass =
          Pass(s, high ? high_qps_ : kLowQps, pass_s, /*trace=*/false);
      (high ? p50_high : p50_low).push_back(FinitePercentile(pass, 0.5));
      (high ? p99_high : p99_low).push_back(FinitePercentile(pass, 0.99));
      coverage.push_back(pass.tally.coverage_answered());
      total.Add(pass.tally);
      widths.insert(widths.end(), pass.width_sel.begin(),
                    pass.width_sel.end());
      const size_t samples = pass.latency_us.size();
      std::fprintf(stderr,
                   "pass %-4s %7.0f qps: %zu requests (highest supported "
                   "percentile %.4g)  p50 %.1f us  p99 %.1f us  shed %llu  "
                   "degraded %llu  coverage %.4f  lateness p99 %.1f us  "
                   "drift stage %d  feedback dropped %llu%s\n",
                   high ? "high" : "low", pass.offered_qps, samples,
                   HighestSupportedPercentile(samples),
                   FinitePercentile(pass, 0.5), FinitePercentile(pass, 0.99),
                   static_cast<unsigned long long>(pass.tally.shed),
                   static_cast<unsigned long long>(pass.tally.degraded),
                   pass.tally.coverage_answered(),
                   PercentileOf(pass.lateness_us, 0.99),
                   pass.drift_stage_max,
                   static_cast<unsigned long long>(pass.feedback_dropped),
                   GeneratorKeptUp(pass) ? "" : "  (INVALID: generator behind)");
      min_samples = std::min(min_samples, samples);
    }
    // Peak RSS of the system under load at both rates, before the
    // benchmark's own per-request records of later rounds add to it.
    if (round == 0) report_->E2e("peak_rss_mb", PeakRssMb(), "MB");
  }

  report_->Check(Supported(min_samples, 0.5),
                 "every pass's p50 has >= 10 samples beyond it");
  report_->attempted += total.attempted;
  report_->failed += total.failed();
  auto best = [](const std::vector<double>& v) {
    return *std::min_element(v.begin(), v.end());
  };
  std::fprintf(stderr,
               "median pass: p99 low %.1f us  p99 high %.1f us; best pass: "
               "p50 low %.1f us  p99 low %.1f us  p50 high %.1f us  "
               "p99 high %.1f us\n",
               Median(p99_low), Median(p99_high), best(p50_low),
               best(p99_low), best(p50_high), best(p99_high));
  report_->E2e("latency_p50_us.low", Median(p50_low), "us");
  report_->E2e("latency_p50_us.high", Median(p50_high), "us");
  report_->E2e("coverage_answered", total.coverage_answered(), "ratio");
  report_->E2e("coverage_min",
               coverage.empty()
                   ? 0.0
                   : *std::min_element(coverage.begin(), coverage.end()),
               "ratio");
  std::sort(widths.begin(), widths.end());
  report_->E2e("width_sel_median", Percentile(widths, 0.5), "ratio");
  std::fprintf(stderr,
               "failed_fraction %.6f (%llu of %llu)  degraded %llu  "
               "answered %llu\n",
               total.failed_fraction(),
               static_cast<unsigned long long>(total.failed()),
               static_cast<unsigned long long>(total.attempted),
               static_cast<unsigned long long>(total.degraded),
               static_cast<unsigned long long>(total.answered));
  report_->Check(total.coverage_answered() >= 1.0 - kAlpha - kCoverageTolerance,
                 "coverage over answered requests >= 1 - alpha - " +
                     std::to_string(kCoverageTolerance));
}

double ServingWorkload::SustainedQps(Stack* s) {
  LadderRule rule;
  rule.p99_limit_us = kP99LimitUs;
  const std::vector<double> rates(std::begin(kLadderQps),
                                  std::end(kLadderQps));
  return Climb(rates, [&](double qps) {
    const PassResult pass = Pass(s, qps, kRungSeconds, /*trace=*/false);
    const RungResult r = ToRung(pass, rule);
    std::fprintf(stderr,
                 "rung %7.0f qps: achieved %.0f  p99 %.1f us  windows within "
                 "limit %d/%d  failed %llu/%llu  backlog %s  generator "
                 "lateness p90 %.1f us -> %s\n",
                 r.offered_qps, r.achieved_qps, r.p99_us,
                 r.windows_within_limit, rule.windows,
                 static_cast<unsigned long long>(r.failed),
                 static_cast<unsigned long long>(r.attempted),
                 r.backlog_grows ? "grows" : "steady",
                 PercentileOf(pass.lateness_us, 0.9),
                 RungPasses(r, rule) ? "pass" : "fail");
    return r;
  }, rule);
}

void ServingWorkload::Trace(Stack* s) {
  // Untraced and traced passes alternate at both rates; the untraced
  // ones give the end-to-end time the traced spans must account for.
  const double pass_s = 0.4 * options_.seconds / (4.0 * kTraceRounds);
  // Per (untraced, traced) pair at one rate: traced / untraced mean
  // latency, and the sampled requests' blocking-path self time per
  // request over the untraced mean.
  std::vector<double> overhead, path_sum;
  std::vector<std::pair<size_t, size_t>> traced_ranges;
  std::vector<double> untraced_means;
  std::vector<double> p99_low, p99_high;  // untraced passes
  std::vector<double> submit_ns, observe_ns, queue_us, service_us, lateness;
  std::vector<uint64_t> batches(kMaxBatch + 1, 0);
  Tally tally;
  uint64_t backlog_max = 0, allocs = 0, observe_calls = 0, dropped = 0;
  int stage_max = 0, kept_up = 0, passes = 0;
  auto mean_latency = [](const PassResult& p) {
    double sum = 0.0;
    size_t n = 0;
    for (const double v : p.latency_us) {
      if (std::isfinite(v)) {
        sum += v;
        ++n;
      }
    }
    return n == 0 ? 0.0 : sum / static_cast<double>(n);
  };
  for (int round = 0; round < kTraceRounds; ++round) {
    for (const double qps : {kLowQps, high_qps_}) {
      const PassResult plain = Pass(s, qps, pass_s, false);
      (qps == kLowQps ? p99_low : p99_high)
          .push_back(FinitePercentile(plain, 0.99));
      const double untraced = mean_latency(plain);
      const size_t first_span = spans_->size();
      PassResult p = Pass(s, qps, pass_s, /*trace=*/true);
      overhead.push_back(mean_latency(p) / untraced - 1.0);
      traced_ranges.emplace_back(first_span, spans_->size());
      untraced_means.push_back(untraced);
      ++passes;
      kept_up += GeneratorKeptUp(p) ? 1 : 0;
      tally.Add(p.tally);
      submit_ns.insert(submit_ns.end(), p.submit_ns.begin(), p.submit_ns.end());
      observe_ns.insert(observe_ns.end(), p.observe_ns.begin(),
                        p.observe_ns.end());
      queue_us.insert(queue_us.end(), p.queue_us.begin(), p.queue_us.end());
      service_us.insert(service_us.end(), p.service_us.begin(),
                        p.service_us.end());
      lateness.insert(lateness.end(), p.lateness_us.begin(),
                      p.lateness_us.end());
      for (size_t b = 0; b < p.batch_counts.size() && b < batches.size(); ++b) {
        batches[b] += p.batch_counts[b];
      }
      backlog_max = std::max(backlog_max, p.gen_backlog_max);
      allocs += p.hot_path_allocs;
      observe_calls += p.observe_calls;
      dropped += p.feedback_dropped;
      stage_max = std::max(stage_max, p.drift_stage_max);
    }
  }
  report_->attempted += tally.attempted;
  report_->failed += tally.failed();
  // Not gated: the ladder's p99 rule reads host stalls as well as the
  // serving path (see README).
  report_->Layer("serve.sustained_qps", SustainedQps(s), "1/s");

  uint64_t batch_count = 0, batched = 0;
  for (size_t b = 1; b < batches.size(); ++b) {
    batch_count += batches[b];
    batched += batches[b] * b;
  }
  const double attempted = static_cast<double>(std::max<uint64_t>(
      tally.attempted, 1));
  report_->Layer("serve.submit_ns.p50", PercentileOf(submit_ns, 0.5), "ns");
  report_->Layer("serve.submit_ns.p99", PercentileOf(submit_ns, 0.99), "ns");
  report_->Layer("serve.queue_wait_us.p50", PercentileOf(queue_us, 0.5), "us");
  report_->Layer("serve.queue_wait_us.p99", PercentileOf(queue_us, 0.99), "us");
  report_->Layer("serve.service_us.p50", PercentileOf(service_us, 0.5), "us");
  report_->Layer("serve.service_us.p99", PercentileOf(service_us, 0.99), "us");
  report_->Layer("serve.batch_size.mean",
                 batch_count == 0 ? 0.0
                                  : static_cast<double>(batched) /
                                        static_cast<double>(batch_count),
                 "count");
  report_->Layer("serve.batches", static_cast<double>(batch_count), "count");
  report_->Layer("serve.shed_fraction",
                 static_cast<double>(tally.failed()) / attempted, "ratio");
  report_->Layer("serve.degraded_fraction",
                 static_cast<double>(tally.degraded) / attempted, "ratio");
  report_->Layer("serve.hot_path_allocs", static_cast<double>(allocs), "count");
  report_->Layer("serve.observe_ns.p50", PercentileOf(observe_ns, 0.5), "ns");
  report_->Layer("serve.observe_ns.p99", PercentileOf(observe_ns, 0.99),
                 "ns");
  report_->Layer("serve.feedback_dropped_fraction",
                 observe_calls == 0 ? 0.0
                                    : static_cast<double>(dropped) /
                                          static_cast<double>(observe_calls),
                 "ratio");
  report_->Layer("serve.drift_stage_max", stage_max, "count");
  // The p99 latencies, not gated: on a shared host they read the share
  // of requests a vCPU stall delays more than the code under test.
  report_->Layer("serve.latency_p99_us.low", Median(p99_low), "us");
  report_->Layer("serve.latency_p99_us.high", Median(p99_high), "us");
  report_->Layer("gen.lateness_us.p99", PercentileOf(lateness, 0.99), "us");
  report_->Layer("gen.backlog_max", static_cast<double>(backlog_max), "count");
  report_->Layer("gen.valid_fraction",
                 static_cast<double>(kept_up) / static_cast<double>(passes),
                 "ratio");

  // Blocking path of a request: generator lateness, admission, queue
  // wait, service. Their self times plus the request's own self time sum
  // to the traced request time; compare with the untraced end-to-end.
  const std::vector<int64_t> self_ns = spans_->SelfTimes();
  const uint32_t n_request = spans_->Intern("request");
  std::vector<uint32_t> path_names = {n_request};
  for (const char* name :
       {"gen.lateness", "serve.admit", "serve.queue_wait", "serve.service"}) {
    path_names.push_back(spans_->Intern(name));
  }
  double request_self = 0.0, path_total = 0.0;
  for (size_t k = 0; k < traced_ranges.size(); ++k) {
    double path = 0.0;
    size_t requests = 0;
    for (size_t i = traced_ranges[k].first; i < traced_ranges[k].second; ++i) {
      const uint32_t name = spans_->spans()[i].name;
      if (std::find(path_names.begin(), path_names.end(), name) ==
          path_names.end()) {
        continue;
      }
      path += static_cast<double>(self_ns[i]);
      if (name == n_request) {
        ++requests;
        request_self += static_cast<double>(self_ns[i]);
      }
    }
    path_total += path;
    if (requests > 0) {
      path_sum.push_back(path * 1e-3 / static_cast<double>(requests) /
                         untraced_means[k]);
    }
  }
  report_->Layer("trace.overhead_fraction", Median(overhead), "ratio");
  report_->Layer("trace.path_sum_fraction", Median(path_sum), "ratio");
  // The request's child spans tile it by construction (they are rebuilt
  // from the Response timestamps), so this checks that the sampled
  // traced requests account for the untraced end-to-end time.
  report_->Check(PathSumAddsUp(Median(path_sum), Median(overhead),
                               kPathSumTolerance),
                 "traced blocking-path self times add up to the untraced "
                 "end-to-end time within trace.overhead_fraction + " +
                     std::to_string(kPathSumTolerance));
  report_->Layer("trace.unattributed_fraction",
                 path_total > 0.0 ? request_self / path_total : 0.0, "ratio");

  const auto by_name = spans_->ByName();
  auto self = [&](const char* name) {
    const auto it = by_name.find(name);
    return it == by_name.end() ? 0.0 : static_cast<double>(it->second.self_ns);
  };
  auto count = [&](const char* name) {
    const auto it = by_name.find(name);
    return it == by_name.end() ? 0.0 : static_cast<double>(it->second.spans);
  };
  // Set-up spans.
  report_->Layer("data.table_gen_s", self("data.table_gen") * 1e-9, "s");
  report_->Layer("data.drift_stream_s", self("data.drift_stream") * 1e-9, "s");
  report_->Layer("query.label_s", self("query.label") * 1e-9, "s");
  report_->Layer("ce.train_s.lwnn",
                 self("ce.train.lwnn") * 1e-9 /
                     std::max(count("ce.train.lwnn"), 1.0),
                 "s");
  LayerMicrobenchmarks(*s);
}

void ServingWorkload::LayerMicrobenchmarks(const Stack& s) {
  // Each layer timed from outside, around calls to its public functions,
  // on the workload's own queries.
  const Workload& pool = s.pool;
  const LwnnEstimator& model = *s.replicas[0];
  const GuardedEstimator& guard = *s.guards[0];
  std::vector<Query> queries;
  std::vector<double> truths;
  for (const LabeledQuery& lq : pool) {
    queries.push_back(lq.query);
    truths.push_back(lq.cardinality);
  }
  const size_t n = queries.size();
  std::vector<double> est(n);
  model.EstimateBatch(queries.data(), n, est.data());
  double sink = 0.0;
  auto per_call = [&](const char* span, auto&& body, size_t calls) {
    const uint32_t name = spans_->Intern(span);
    const int64_t a = NowNs();
    body();
    const int64_t b = NowNs();
    spans_->Record(name, a, b);
    return static_cast<double>(b - a) / static_cast<double>(calls);
  };
  constexpr int kPasses = 20;
  std::vector<float> features(model.Features(queries[0]).size() + 64);
  report_->Layer("ce.featurize_ns_per_query",
                 per_call("ce.featurize", [&] {
                   for (int r = 0; r < kPasses; ++r) {
                     for (const Query& q : queries) {
                       model.FeaturesInto(q, features.data());
                       sink += features[0];
                     }
                   }
                 }, kPasses * n),
                 "ns");

  std::vector<GuardedEstimate> out(kMicroBatch);
  GuardBatchScratch scratch;
  auto batch_us = [&](const char* span, auto&& call) {
    std::vector<double> us;
    const uint32_t name = spans_->Intern(span);
    for (int r = 0; r < kMicroReps; ++r) {
      const size_t off = (static_cast<size_t>(r) * kMicroBatch) % (n - kMicroBatch);
      const int64_t a = NowNs();
      call(queries.data() + off);
      const int64_t b = NowNs();
      spans_->Record(name, a, b);
      us.push_back(static_cast<double>(b - a) * 1e-3);
    }
    return Median(us);
  };
  report_->Layer("ce.lwnn_batch_us.b32", batch_us("ce.lwnn_batch", [&](const Query* q) {
    model.EstimateBatch(q, kMicroBatch, est.data());
  }), "us");
  report_->Layer("ce.guard_batch_us.b32", batch_us("ce.guard_batch", [&](const Query* q) {
    guard.EstimateBatchGuarded(q, kMicroBatch, out.data(), 0, &scratch);
  }), "us");
  report_->Layer("ce.fallback_batch_us.b32", batch_us("ce.fallback_batch", [&](const Query* q) {
    guard.EstimateFallbackTier(q, kMicroBatch, out.data());
  }), "us");
  model.EstimateBatch(queries.data(), n, est.data());

  std::vector<uint64_t> fss(n);
  for (size_t i = 0; i < n; ++i) {
    fss[i] = confcard::ResidualCorrector::SubspaceHash(queries[i]);
  }
  confcard::ResidualCorrector corrector;
  report_->Layer("ce.residual_observe_ns",
                 per_call("ce.residual_observe", [&] {
                   for (int r = 0; r < kPasses; ++r) {
                     for (size_t i = 0; i < n; ++i) {
                       corrector.Observe(fss[i], est[i], truths[i]);
                     }
                   }
                 }, kPasses * n),
                 "ns");
  report_->Layer("conformal.invert_ns",
                 per_call("conformal.invert", [&] {
                   for (int r = 0; r < kPasses; ++r) {
                     for (size_t i = 0; i < n; ++i) {
                       const Interval iv = confcard::ClipToCardinality(
                           s.scp->Predict(est[i]), s.num_rows);
                       sink += iv.hi;
                     }
                   }
                 }, kPasses * n),
                 "ns");
  confcard::OnlineConformal::Options oo;
  oo.alpha = kAlpha;
  oo.window = 512;
  oo.publish_metrics = false;
  confcard::OnlineConformal online(s.scp->scoring_ptr(), oo);
  report_->Layer("conformal.online_observe_ns",
                 per_call("conformal.online_observe", [&] {
                   for (int r = 0; r < kPasses; ++r) {
                     for (size_t i = 0; i < n; ++i) {
                       online.Observe(est[i], truths[i]);
                     }
                   }
                 }, kPasses * n),
                 "ns");
  const Table& table = *s.train_table;
  uint64_t matches = 0;
  report_->Layer("exec.count_us_per_query",
                 per_call("exec.count", [&] {
                   for (const Query& q : queries) {
                     matches += confcard::CountMatches(table, q);
                   }
                 }, n) * 1e-3,
                 "us");
  // Publishing what the timed calls computed keeps them from being
  // optimized away.
  report_->stamp["micro_checksum"] =
      std::to_string(sink + static_cast<double>(matches));
}

}  // namespace

void RunServing(const RunOptions& options, bool drift, Report* report,
                SpanRecorder* spans) {
  report->stamp["shards"] = std::to_string(kShards);
  report->stamp["producers"] = "1";
  report->stamp["threads"] = std::to_string(kSetupThreads) +
                             " (set-up); serving: 1 producer + " +
                             std::to_string(kShards) +
                             " workers + 1 collector";
  report->stamp["max_batch"] = std::to_string(kMaxBatch);
  report->stamp["flush_timeout_us"] = std::to_string(kFlushUs);
  report->stamp["queue_capacity"] = std::to_string(kQueueCapacity);
  report->stamp["feedback"] = drift ? "true" : "false";
  report->stamp["feedback_capacity"] = std::to_string(kFeedbackCapacity);
  report->stamp["low_qps"] = std::to_string(kLowQps);
  report->stamp["high_qps"] =
      std::to_string(drift ? kHighQpsFeedback : kHighQps);
  report->stamp["p99_limit_us"] = std::to_string(kP99LimitUs);
  report->stamp["rows"] = std::to_string(kRows);
  ServingWorkload(options, drift, report, spans).Run();
}

}  // namespace perfbench
