// Guarded estimation: a decorator that makes any CardinalityEstimator
// safe to serve. The paper's models fail silently — NaN logits, exp()
// blow-ups — and a production serving path (postgrespro/aqo is the
// model here) survives because it always has a fallback to a native
// estimator. GuardedEstimator supplies exactly that, as one batched
// tier walk that every entry point views:
//
//   1. invalid queries (column range, lo <= hi, no NaN bounds) are
//      quarantined instead of aborting,
//   2. the circuit breaker admits queries to the primary in index order
//      (it trips to fallback-only after K consecutive primary failures
//      and recovers via a healthy probe after cooldown),
//   3. each tier — primary attempt 0, max_retries retries, the
//      AddFallback chain, a histogram-AVI estimator built from the
//      table — runs once as a batch over the pending queries, and a
//      query leaves at its first sane (finite, >= 0) value; refused
//      queries enter at the fallbacks,
//   4. breaker outcomes, then guard records, follow in index order.
//
// Every intervention bumps a ce.guard.* metric and, when the event log
// is armed, appends a guard record; a healthy batch pays one
// validation pass, one primary call and one finiteness pass. With no
// faults injected, the guarded path is bit-identical to the raw
// estimator (determinism_test enforces this).
#ifndef CONFCARD_CE_GUARDED_H_
#define CONFCARD_CE_GUARDED_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ce/estimator.h"
#include "ce/histogram.h"
#include "obs/metrics.h"

namespace confcard {

/// Guard policy knobs.
struct GuardOptions {
  /// Extra attempts on the primary after a failed one (0 = no retry).
  int max_retries = 1;
  /// Consecutive primary failures (counting each query once, after
  /// retries) that trip the circuit breaker; <= 0 disables the breaker.
  int breaker_threshold = 8;
  /// Queries served fallback-only while the breaker is open before a
  /// probe query is allowed through to the primary.
  int breaker_cooldown = 32;
};

/// Caller-owned reusable buffers for the guarded tier walk. A serving
/// loop that keeps one scratch per worker pays zero heap allocations per
/// batch once the vectors have grown to the loop's steady-state batch
/// size (ServeTest.AllocationFreeAtEveryBatchSize gates this).
struct GuardBatchScratch {
  std::vector<size_t> pending;     // indices still walking the tiers
  std::vector<uint8_t> fate;       // per-query admission/outcome
  std::vector<double> values;      // one tier's answers for `pending`
  std::vector<Query> compacted;    // `pending` queries, when not all n
};

/// Outcome of one guarded estimate.
struct GuardedEstimate {
  /// Sanitized cardinality estimate (finite, >= 0).
  double value = 0.0;
  /// True when the primary did not produce this value (fallback chain,
  /// open breaker, or quarantined invalid query). Degraded answers get
  /// conservatively inflated prediction intervals downstream.
  bool degraded = false;
  /// 0: primary. 1..: index into the fallback chain (the final
  /// histogram fallback is the last index). -1: quarantined invalid
  /// query (no estimator ran).
  int source = 0;
};

/// Decorator over a primary CardinalityEstimator. Neither the primary
/// nor added fallbacks are owned; the terminal histogram fallback is
/// built from the table and owned by the guard.
class GuardedEstimator : public CardinalityEstimator {
 public:
  GuardedEstimator(const CardinalityEstimator& primary, const Table& table,
                   GuardOptions options = {});

  /// Inserts a fallback tried (in insertion order) before the terminal
  /// histogram estimator. Not owned; must outlive the guard.
  void AddFallback(const CardinalityEstimator& fallback);

  std::string name() const override;
  double EstimateCardinality(const Query& query) const override;
  void EstimateBatch(const Query* queries, size_t n,
                     double* out) const override;

  /// Rich single-query path (a batch of one): value plus provenance.
  GuardedEstimate EstimateGuarded(const Query& query) const;
  /// Rich batch path: the tier walk over `queries`. Values, provenance,
  /// counters and guard records are those of a loop of EstimateGuarded
  /// over the same queries, except that the breaker's admission for the
  /// whole batch is decided before any outcome of it is recorded — a
  /// trip or probe recovery caused by query i takes effect from the
  /// next call, and outcomes of queries admitted before a trip do not
  /// move the open breaker (only its probe does).
  ///
  /// `order_key_base`: event-log ordering key for guard records emitted
  /// by query 0 of this batch (query i uses base + i); see
  /// obs::EventLog::OrderKey. Callers that fan batches out across
  /// threads pass keys derived from a shared order window so the merged
  /// log is deterministic; 0 (the default) lets the log assign
  /// per-thread automatic keys.
  ///
  /// `scratch`: optional reusable buffers; pass a per-worker
  /// GuardBatchScratch to make steady-state batches allocation-free.
  /// Null uses the calling thread's own, equally allocation-free once
  /// warm.
  void EstimateBatchGuarded(const Query* queries, size_t n,
                            GuardedEstimate* out, uint64_t order_key_base = 0,
                            GuardBatchScratch* scratch = nullptr) const;

  /// Fallback-tier batch path for staged drift degradation: the same
  /// walk with the primary tier skipped — every valid query is served
  /// from the fallback chain (histogram-AVI terminal tier), with no
  /// breaker bookkeeping and no probes. Guard records carry reason
  /// "drift_fallback". Allocation-free once the calling thread's
  /// buffers have grown to the batch size.
  void EstimateFallbackTier(const Query* queries, size_t n,
                            GuardedEstimate* out,
                            uint64_t order_key_base = 0) const;

  /// Primes the calling thread for guarded batches of every size
  /// 1..max_batch: reserves its tier-walk scratch (the buffers passed-
  /// null-scratch walks use). Runs no tier, records no metric, moves no
  /// breaker and draws no fault.
  void PrimeBatchSizes(size_t max_batch) const;

  /// Column count of the guarded table.
  size_t num_columns() const { return num_columns_; }

  /// Forces the breaker open (true) or releases the force (false). While
  /// forced, breaker_open() reports open, AllowPrimary denies every
  /// query (no probes), and the organic breaker state underneath is
  /// untouched — releasing the force restores whatever the consecutive-
  /// failure machinery last decided. The drift ladder's terminal stage
  /// uses this to shed load at admission without fabricating failures.
  void ForceBreaker(bool open) const;
  /// True while ForceBreaker(true) is in effect.
  bool breaker_forced() const;

  /// Circuit-breaker state, for tests and monitors (true when organic
  /// OR forced open).
  bool breaker_open() const;

  const GuardOptions& options() const { return options_; }

 private:
  /// True iff `v` may be served as a cardinality.
  static bool Sane(double v);

  /// The tier walk every public entry point views (see the header
  /// comment); `use_primary` false skips the primary tier entirely.
  void Walk(const Query* queries, size_t n, GuardedEstimate* out,
            bool use_primary, uint64_t order_key_base,
            GuardBatchScratch* scratch) const;
  /// Breaker bookkeeping after a query's primary outcome. While the
  /// breaker is open only the probe's outcome (`was_probe`) counts: a
  /// healthy probe closes it, a failed one restarts the cooldown.
  void RecordPrimaryOutcome(bool ok, bool was_probe) const;
  /// Decides between primary and fallback for one query under the
  /// breaker; sets *probe when this query is the post-cooldown probe.
  bool AllowPrimary(bool* probe) const;

  void EmitGuardRecord(const Query& query, const GuardedEstimate& outcome,
                       const char* reason, uint64_t order_key) const;

  const CardinalityEstimator* primary_;
  std::vector<const CardinalityEstimator*> fallbacks_;
  std::unique_ptr<HistogramEstimator> histogram_;
  GuardOptions options_;
  size_t num_columns_;

  // Breaker state. Guarded queries run concurrently (the harness fans
  // batches out; the serving front-end hammers one guard from every
  // shard producer), so transitions are lock-free atomics: AllowPrimary
  // claims cooldown ticks and the single in-flight probe slot via CAS,
  // and breaker_open() is a relaxed-load admission check cheap enough
  // for a serving submit path. With a healthy primary the state never
  // changes, so faults-off parallel runs stay deterministic.
  // cooldown_remaining_ uses kProbeInFlight (-1) to mark that a probe
  // query has been admitted and its outcome is still pending; other
  // callers stay on the fallback until the probe resolves.
  static constexpr int kProbeInFlight = -1;
  mutable std::atomic<int> consecutive_failures_{0};
  mutable std::atomic<bool> open_{false};
  mutable std::atomic<int> cooldown_remaining_{0};
  // Drift-ladder force: ORed into breaker_open(), short-circuits
  // AllowPrimary. Independent of the organic state above.
  mutable std::atomic<bool> forced_open_{false};

  struct GuardMetrics {
    obs::Counter& queries;
    obs::Counter& primary_ok;
    obs::Counter& sanitized_nan;
    obs::Counter& sanitized_negative;
    obs::Counter& retries;
    obs::Counter& retry_success;
    obs::Counter& fallback_served;
    obs::Counter& invalid_query;
    obs::Counter& breaker_trips;
    obs::Counter& breaker_probes;
    obs::Counter& breaker_recoveries;
    obs::Gauge& breaker_open;
    obs::Histogram& latency_us;
    GuardMetrics();
  };
  static GuardMetrics& SharedMetrics();
  GuardMetrics& metrics_;
};

}  // namespace confcard

#endif  // CONFCARD_CE_GUARDED_H_
