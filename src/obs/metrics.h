// Process-wide metrics: named counters, gauges, and fixed-bucket latency
// histograms cheap enough for per-query hot paths. Registration goes
// through a mutex-protected registry; recording touches only per-metric
// storage, so call sites should resolve a metric once (typically via a
// function-local static reference) and record lock-free afterwards.
//
// Counters and histograms are sharded: each metric owns kMetricShards
// cache-line-padded slots and every thread records into a fixed slot
// assigned round-robin at first use. The record path is a relaxed add on
// the calling thread's slot — no CAS loop, no shared cache line below
// kMetricShards concurrent threads — and aggregation across slots happens
// only at snapshot/export time. Single-threaded runs use exactly one slot
// per metric, so aggregated values (including floating-point sums) are
// bit-identical to an unsharded implementation.
//
// Metric objects live for the whole process: Reset() zeroes values but
// never invalidates references handed out by the registry.
#ifndef CONFCARD_OBS_METRICS_H_
#define CONFCARD_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace confcard {
namespace obs {

/// Number of cache-line-padded slots each counter/histogram spreads its
/// updates across. A power of two; threads wrap around when more than
/// kMetricShards of them record concurrently.
inline constexpr size_t kMetricShards = 16;

/// NaN-safe relaxed atomic helpers for doubles (used by the histogram
/// shards; exposed for tests). A NaN delta or candidate is dropped
/// instead of poisoning the accumulator, and a NaN already in `target`
/// is replaced by the first well-formed candidate.
void AtomicAddDouble(std::atomic<double>* target, double delta);
void AtomicMinDouble(std::atomic<double>* target, double value);
void AtomicMaxDouble(std::atomic<double>* target, double value);

namespace internal {

/// Stable shard slot for the calling thread, assigned on first use.
uint32_t AssignMetricShard();

inline uint32_t MetricShardIndex() {
  static thread_local const uint32_t idx = AssignMetricShard();
  return idx;
}

struct alignas(64) PaddedCount {
  std::atomic<uint64_t> v{0};
};

}  // namespace internal

/// Monotonically increasing event count. Increment is a relaxed add on
/// the calling thread's padded slot; value() sums the slots.
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    shards_[internal::MetricShardIndex()].v.fetch_add(
        n, std::memory_order_relaxed);
  }
  uint64_t value() const {
    uint64_t total = 0;
    for (const auto& s : shards_) {
      total += s.v.load(std::memory_order_relaxed);
    }
    return total;
  }
  void Reset() {
    for (auto& s : shards_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  std::array<internal::PaddedCount, kMetricShards> shards_{};
};

/// Last-write-wins scalar (calibration-set sizes, epoch losses, ...).
/// Not sharded: "last write" has no useful meaning per-slot, and a single
/// relaxed store is already wait-free; writers racing on the same gauge
/// are rare and the winner is arbitrary either way.
class Gauge {
 public:
  void Set(double v) {
    value_.store(v, std::memory_order_relaxed);
  }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed power-of-two-bucket histogram for non-negative samples
/// (canonically latencies in microseconds). Bucket i holds samples in
/// (2^(i-1), 2^i]; the last bucket is unbounded. Recording updates only
/// the calling thread's shard (one bucket add plus uncontended CAS loops
/// for sum/min/max); summary percentiles are interpolated from the
/// merged bucket boundaries at snapshot time.
class Histogram {
 public:
  static constexpr size_t kNumBuckets = 40;

  void Record(double value);
  void Reset();

  /// Upper bound of bucket `i` (+inf for the last bucket).
  static double BucketUpperBound(size_t i);

  struct Snapshot {
    uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;  // 0 when count == 0
    double max = 0.0;
    std::array<uint64_t, kNumBuckets> buckets{};

    double Mean() const { return count == 0 ? 0.0 : sum / count; }
    /// Percentile estimate (p in [0, 100]) by linear interpolation within
    /// the containing bucket, clamped to the observed [min, max].
    double Percentile(double p) const;
  };
  Snapshot TakeSnapshot() const;

 private:
  // No per-shard count: every record lands in exactly one bucket, so the
  // sample count is the bucket total, summed at snapshot time instead of
  // paying a third fetch_add per record.
  struct alignas(64) Shard {
    std::array<std::atomic<uint64_t>, kNumBuckets> buckets{};
    std::atomic<double> sum{0.0};
    std::atomic<double> min{std::numeric_limits<double>::infinity()};
    std::atomic<double> max{-std::numeric_limits<double>::infinity()};
  };
  std::array<Shard, kMetricShards> shards_{};
};

/// Process-wide registry. Names are dot-separated paths, lowercase, with
/// the owning layer as the first segment and the unit as a suffix where
/// one applies (see docs/OBSERVABILITY.md), e.g. "ce.mscn.infer_us".
class MetricsRegistry {
 public:
  static MetricsRegistry& Instance();

  /// Finds or creates; the returned reference is valid for the process
  /// lifetime.
  Counter& GetCounter(std::string_view name);
  Gauge& GetGauge(std::string_view name);
  Histogram& GetHistogram(std::string_view name);

  /// Free-form run metadata (scale, seeds, model configs) carried into
  /// the JSON artifact. Last write per key wins.
  void SetMeta(std::string_view key, std::string_view value);
  void SetMeta(std::string_view key, double value);

  struct Snapshot {
    std::vector<std::pair<std::string, uint64_t>> counters;
    std::vector<std::pair<std::string, double>> gauges;
    std::vector<std::pair<std::string, Histogram::Snapshot>> histograms;
    std::vector<std::pair<std::string, std::string>> meta;
  };
  /// Consistent-enough point-in-time view (each metric is aggregated
  /// across its shards; the set of metrics is read under the registry
  /// lock).
  Snapshot TakeSnapshot() const;

  /// Prometheus text exposition (version 0.0.4) of the current snapshot:
  /// `# HELP` (carrying the original dotted name) and `# TYPE` per
  /// metric, cumulative `_bucket{le="..."}` series plus `_sum` /
  /// `_count` per histogram, metric names sanitized to [a-z0-9_], label
  /// values escaped per the spec (backslash, double-quote, newline), run
  /// metadata as leading comments. The integration point for a future
  /// serving front-end's /metrics endpoint.
  std::string WriteTextExposition() const;

  /// Zeroes every metric and clears metadata without destroying the
  /// metric objects (outstanding references stay valid). Test-only.
  void ResetForTest();

 private:
  MetricsRegistry() = default;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  std::map<std::string, std::string, std::less<>> meta_;
};

/// Shorthand for MetricsRegistry::Instance().
inline MetricsRegistry& Metrics() { return MetricsRegistry::Instance(); }

}  // namespace obs
}  // namespace confcard

#endif  // CONFCARD_OBS_METRICS_H_
