#include "ce/guarded.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

#include "common/fault.h"
#include "common/stopwatch.h"
#include "obs/event_log.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "query/validate.h"

namespace confcard {

GuardedEstimator::GuardMetrics::GuardMetrics()
    : queries(obs::Metrics().GetCounter("ce.guard.queries")),
      primary_ok(obs::Metrics().GetCounter("ce.guard.primary_ok")),
      sanitized_nan(obs::Metrics().GetCounter("ce.guard.sanitized_nan")),
      sanitized_negative(
          obs::Metrics().GetCounter("ce.guard.sanitized_negative")),
      retries(obs::Metrics().GetCounter("ce.guard.retries")),
      retry_success(obs::Metrics().GetCounter("ce.guard.retry_success")),
      fallback_served(obs::Metrics().GetCounter("ce.guard.fallback_served")),
      invalid_query(obs::Metrics().GetCounter("ce.guard.invalid_query")),
      breaker_trips(obs::Metrics().GetCounter("ce.guard.breaker_trips")),
      breaker_probes(obs::Metrics().GetCounter("ce.guard.breaker_probes")),
      breaker_recoveries(
          obs::Metrics().GetCounter("ce.guard.breaker_recoveries")),
      breaker_open(obs::Metrics().GetGauge("ce.guard.breaker_open")),
      latency_us(obs::Metrics().GetHistogram("ce.guard.latency_us")) {}

GuardedEstimator::GuardMetrics& GuardedEstimator::SharedMetrics() {
  static GuardMetrics* metrics = new GuardMetrics();
  return *metrics;
}

GuardedEstimator::GuardedEstimator(const CardinalityEstimator& primary,
                                   const Table& table, GuardOptions options)
    : primary_(&primary),
      histogram_(std::make_unique<HistogramEstimator>(table)),
      options_(options),
      num_columns_(table.num_columns()),
      metrics_(SharedMetrics()) {}

void GuardedEstimator::AddFallback(const CardinalityEstimator& fallback) {
  fallbacks_.push_back(&fallback);
}

std::string GuardedEstimator::name() const {
  return "guarded(" + primary_->name() + ")";
}

bool GuardedEstimator::Sane(double v) {
  return std::isfinite(v) && v >= 0.0;
}

bool GuardedEstimator::breaker_open() const {
  return forced_open_.load(std::memory_order_acquire) ||
         open_.load(std::memory_order_acquire);
}

void GuardedEstimator::ForceBreaker(bool open) const {
  forced_open_.store(open, std::memory_order_release);
}

bool GuardedEstimator::breaker_forced() const {
  return forced_open_.load(std::memory_order_acquire);
}

bool GuardedEstimator::AllowPrimary(bool* probe) const {
  *probe = false;
  if (forced_open_.load(std::memory_order_acquire)) return false;
  if (options_.breaker_threshold <= 0) return true;
  if (!open_.load(std::memory_order_acquire)) return true;
  // Open: either burn one cooldown tick, claim the probe slot, or (when
  // another thread holds the probe slot) stay on the fallback. Every
  // transition is a CAS so concurrent callers each take exactly one of
  // those actions — the cooldown never goes negative and at most one
  // probe is in flight.
  int c = cooldown_remaining_.load(std::memory_order_relaxed);
  for (;;) {
    if (c > 0) {
      if (cooldown_remaining_.compare_exchange_weak(
              c, c - 1, std::memory_order_acq_rel)) {
        return false;
      }
      continue;  // c reloaded by the failed CAS
    }
    if (c == kProbeInFlight) return false;
    // c == 0: cooldown drained; claim the probe slot.
    if (cooldown_remaining_.compare_exchange_weak(
            c, kProbeInFlight, std::memory_order_acq_rel)) {
      *probe = true;
      return true;
    }
  }
}

void GuardedEstimator::RecordPrimaryOutcome(bool ok, bool was_probe) const {
  if (options_.breaker_threshold <= 0) return;
  if (open_.load(std::memory_order_acquire)) {
    // Only the probe moves an open breaker: queries admitted before the
    // trip (earlier in the batch, or on another thread) do not. A failed
    // probe restarts the cooldown.
    if (!was_probe) return;
    if (!ok) {
      cooldown_remaining_.store(options_.breaker_cooldown,
                                std::memory_order_release);
      return;
    }
    // A healthy probe closes the breaker. It is the single in-flight
    // probe, so exactly one thread owns the open->closed edge's metrics.
    open_.store(false, std::memory_order_release);
    cooldown_remaining_.store(0, std::memory_order_release);
    metrics_.breaker_recoveries.Increment();
    metrics_.breaker_open.Set(0.0);
  }
  if (ok) {
    // Serving threads share one guard; a healthy stream must not keep
    // writing the shared line, so the reset store happens only on a
    // failure-to-success edge.
    if (consecutive_failures_.load(std::memory_order_relaxed) != 0) {
      consecutive_failures_.store(0, std::memory_order_relaxed);
    }
    return;
  }
  const int failures =
      consecutive_failures_.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (failures >= options_.breaker_threshold) {
    bool expected = false;
    if (open_.compare_exchange_strong(expected, true,
                                      std::memory_order_acq_rel)) {
      cooldown_remaining_.store(options_.breaker_cooldown,
                                std::memory_order_release);
      metrics_.breaker_trips.Increment();
      metrics_.breaker_open.Set(1.0);
    }
  }
}

void GuardedEstimator::EmitGuardRecord(const Query& query,
                                       const GuardedEstimate& outcome,
                                       const char* reason,
                                       uint64_t order_key) const {
  obs::EventLog& elog = obs::EventLog::Instance();
  if (!elog.enabled()) return;
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("type").String("guard");
  w.Key("model").String(primary_->name());
  w.Key("reason").String(reason);
  w.Key("qkey").Int(QueryContentKey(query));
  w.Key("value").Number(outcome.value);
  w.Key("degraded").Bool(outcome.degraded);
  w.Key("source").Number(static_cast<double>(outcome.source));
  w.EndObject();
  if (order_key != 0) {
    elog.AppendRecordOrdered(w.TakeString(), order_key);
  } else {
    elog.AppendRecord(w.TakeString());
  }
}

namespace {

// Where one query stands in the tier walk, set at admission.
enum Fate : uint8_t {
  kAdmitted,      // the primary answers (unless marked failed)
  kProbe,         // the post-cooldown probe
  kFailed,        // admitted; every primary attempt was insane
  kProbeFailed,   // the probe, and every attempt was insane
  kInvalid,       // quarantined: no estimator runs
  kRefused,       // the open breaker kept it off the primary
  kFallbackOnly,  // EstimateFallbackTier: the primary tier is skipped
};

// Guard-record reason per Fate (null: the primary answered).
constexpr const char* kReason[] = {
    nullptr,         nullptr,        "primary_failed", "probe_failed",
    "invalid_query", "breaker_open", "drift_fallback",
};

// Buffers for callers that pass no scratch, one set per thread, so the
// scratch-free entry points are allocation-free once warm. A nested walk
// (a guard used as a tier of another guard) finds them taken.
thread_local GuardBatchScratch thread_scratch;
thread_local bool thread_scratch_taken = false;
struct ReleaseThreadScratch {
  void operator()(GuardBatchScratch*) const { thread_scratch_taken = false; }
};

}  // namespace

void GuardedEstimator::Walk(const Query* queries, size_t n,
                            GuardedEstimate* out, bool use_primary,
                            uint64_t order_key_base,
                            GuardBatchScratch* scratch) const {
  if (n == 0) return;
  metrics_.queries.Increment(n);
  const bool take = scratch == nullptr && !thread_scratch_taken;
  const std::unique_ptr<GuardBatchScratch, ReleaseThreadScratch> lease(
      take ? &thread_scratch : nullptr);
  thread_scratch_taken |= take;
  GuardBatchScratch local;
  GuardBatchScratch& s = scratch ? *scratch : take ? thread_scratch : local;
  std::vector<size_t>& pending = s.pending;
  std::vector<uint8_t>& fate = s.fate;
  pending.clear();
  fate.resize(n);

  // 1-2. Validate first (the primary may index columns without checks),
  // then ask the breaker, in index order, whether the primary may answer.
  bool probed = false;
  for (size_t i = 0; i < n; ++i) {
    bool probe = false;
    if (!ValidateQuery(queries[i], num_columns_).ok()) {
      // A malformed query has no meaningful cardinality; quarantine it
      // with the empty-result answer rather than crashing an estimator.
      metrics_.invalid_query.Increment();
      fate[i] = kInvalid;
      out[i] = {0.0, true, -1};
    } else if (!use_primary) {
      fate[i] = kFallbackOnly;
    } else if (!AllowPrimary(&probe)) {
      fate[i] = kRefused;
    } else {
      if (probe) metrics_.breaker_probes.Increment();
      probed |= probe;
      fate[i] = probe ? kProbe : kAdmitted;
      pending.push_back(i);
    }
  }
  const bool all_admitted = pending.size() == n;

  // 3. The tier walk: run_tier runs one estimator over the pending
  // queries as one batch; those `take` rejects stay pending.
  const auto run_tier = [&](const CardinalityEstimator& tier, auto&& take) {
    const size_t m = pending.size();
    s.values.resize(m);
    if (m == n) {
      tier.EstimateBatch(queries, n, s.values.data());
    } else {
      // Element-wise assignment into resized (not reconstructed) slots
      // so each Query's predicate vector reuses its capacity.
      if (s.compacted.size() < m) s.compacted.resize(m);
      for (size_t k = 0; k < m; ++k) s.compacted[k] = queries[pending[k]];
      tier.EstimateBatch(s.compacted.data(), m, s.values.data());
    }
    size_t kept = 0;
    for (size_t k = 0; k < m; ++k) {
      if (!take(pending[k], s.values[k])) pending[kept++] = pending[k];
    }
    pending.resize(kept);
  };
  const int attempts = 1 + std::max(options_.max_retries, 0);
  const auto primary_attempt = [&](int attempt) {
    size_t answered = 0;  // one counter update per tier, not per query
    run_tier(*primary_, [&](size_t i, double v) {
      if (!Sane(v)) {
        (std::isnan(v) || std::isinf(v) ? metrics_.sanitized_nan
                                        : metrics_.sanitized_negative)
            .Increment();
        if (attempt + 1 < attempts) metrics_.retries.Increment();
        return false;
      }
      out[i] = {v, false, 0};
      ++answered;
      return true;
    });
    metrics_.primary_ok.Increment(answered);
    if (attempt > 0) metrics_.retry_success.Increment(answered);
  };
  // Attempt 0 runs with the default retry salt, so a guarded primary
  // sees exactly the injection decisions the raw model would.
  if (!pending.empty()) primary_attempt(0);
  if (all_admitted && pending.empty()) {
    // A healthy batch: one success records what n of them would.
    RecordPrimaryOutcome(true, probed);
    return;
  }

  {
    // Detail-only span and latency sample over the tiers past attempt
    // 0: a degraded batch shows on trace timelines and in profiles. The
    // fallback tier (no attempt 0) records neither.
    std::optional<obs::TraceSpan> span;
    if (use_primary && obs::DetailSpansEnabled()) {
      span.emplace("guard.estimate");
    }
    Stopwatch watch;
    for (int attempt = 1; attempt < attempts && !pending.empty(); ++attempt) {
      fault::ScopedRetrySalt salt(static_cast<uint64_t>(attempt));
      primary_attempt(attempt);
    }
    // What the primary did not answer walks the fallback chain, joined
    // by the queries that never reached it, in index order.
    for (size_t i : pending) {
      fate[i] = fate[i] == kProbe ? kProbeFailed : kFailed;
    }
    pending.clear();
    for (size_t i = 0; i < n; ++i) {
      if (fate[i] >= kFailed && fate[i] != kInvalid) pending.push_back(i);
    }
    metrics_.fallback_served.Increment(pending.size());
    for (size_t t = 0; t <= fallbacks_.size() && !pending.empty(); ++t) {
      const bool terminal = t == fallbacks_.size();
      run_tier(terminal ? *histogram_ : *fallbacks_[t],
               [&](size_t i, double v) {
                 if (!Sane(v)) {
                   if (!terminal) return false;
                   v = 0.0;  // the AVI estimator is always sane; belt & braces
                 }
                 out[i] = {v, true, static_cast<int>(t) + 1};
                 return true;
               });
    }
    if (use_primary) metrics_.latency_us.Record(watch.ElapsedMicros());
  }

  // 4. Breaker outcomes, then 5. guard records, each in index order.
  // Key base + i composes with EventLog::OrderKey (batches stay far
  // below 2^32); base 0 keeps the automatic per-thread keying.
  for (size_t i = 0; i < n; ++i) {
    if (fate[i] <= kProbeFailed) {
      RecordPrimaryOutcome(fate[i] <= kProbe,
                           fate[i] == kProbe || fate[i] == kProbeFailed);
    }
  }
  for (size_t i = 0; i < n; ++i) {
    if (kReason[fate[i]] == nullptr) continue;
    EmitGuardRecord(queries[i], out[i], kReason[fate[i]],
                    order_key_base == 0 ? 0 : order_key_base + i);
  }
}

GuardedEstimate GuardedEstimator::EstimateGuarded(const Query& query) const {
  GuardedEstimate out;
  Walk(&query, 1, &out, /*use_primary=*/true, 0, nullptr);
  return out;
}

void GuardedEstimator::EstimateBatchGuarded(const Query* queries, size_t n,
                                            GuardedEstimate* out,
                                            uint64_t order_key_base,
                                            GuardBatchScratch* scratch) const {
  Walk(queries, n, out, /*use_primary=*/true, order_key_base, scratch);
}

void GuardedEstimator::EstimateFallbackTier(const Query* queries, size_t n,
                                            GuardedEstimate* out,
                                            uint64_t order_key_base) const {
  Walk(queries, n, out, /*use_primary=*/false, order_key_base, nullptr);
}

void GuardedEstimator::PrimeBatchSizes(size_t max_batch) const {
  thread_scratch.pending.reserve(max_batch);
  thread_scratch.fate.reserve(max_batch);
  thread_scratch.values.reserve(max_batch);
}

double GuardedEstimator::EstimateCardinality(const Query& query) const {
  return EstimateGuarded(query).value;
}

void GuardedEstimator::EstimateBatch(const Query* queries, size_t n,
                                     double* out) const {
  std::vector<GuardedEstimate> guarded(n);
  EstimateBatchGuarded(queries, n, guarded.data());
  for (size_t i = 0; i < n; ++i) out[i] = guarded[i].value;
}

}  // namespace confcard
