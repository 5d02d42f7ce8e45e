// Statistics the benchmark reports: nearest-rank percentiles with the
// ten-samples-beyond support rule, run-level medians and quartiles,
// open-loop failure accounting, backlog-growth detection and the
// sustained-rate choice on a fixed ladder of offered rates.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace perfbench {

/// A percentile is supported by n samples when at least this many
/// samples lie strictly beyond its nearest rank.
inline constexpr size_t kMinSamplesBeyond = 10;

/// Nearest-rank percentile q in (0, 1] of `sorted` (ascending): the
/// value at 1-based rank ceil(q * n). Infinite samples sort last, so a
/// percentile that lands on one reads +inf. 0 for an empty input.
double Percentile(const std::vector<double>& sorted, double q);

/// Percentile of unsorted `values` (sorts a copy).
double PercentileOf(std::vector<double> values, double q);

/// Samples strictly beyond the nearest rank of q among n samples.
size_t SamplesBeyond(size_t n, double q);

/// True when n samples support percentile q (>= kMinSamplesBeyond
/// samples beyond it).
bool Supported(size_t n, double q);

/// The highest of 0.5, 0.9, 0.99, 0.999, 0.9999 that n samples support;
/// 0 when even the median is unsupported (n < 20).
double HighestSupportedPercentile(size_t n);

/// Median of `values` (mean of the middle two for an even count); 0 for
/// an empty input. Takes a copy: callers keep their order.
double Median(std::vector<double> values);

/// Tolerance of the traced-run check below, as a share of the
/// untraced end-to-end time.
inline constexpr double kPathSumTolerance = 0.05;

/// The traced run's check: the self times along the blocking path, as a
/// share of the untraced end-to-end time (`path_sum_fraction`), differ
/// from 1 by at most the tracing overhead's magnitude plus `tolerance`.
bool PathSumAddsUp(double path_sum_fraction, double overhead_fraction,
                   double tolerance);

/// Outcome counts of one open-loop pass. A request fails when admission
/// sheds or rejects it; it is answered when it was served by the primary
/// model (neither shed nor degraded). Degraded answers are neither.
struct Tally {
  uint64_t attempted = 0;
  uint64_t shed = 0;      // queue full or breaker admission
  uint64_t rejected = 0;  // front end stopped
  uint64_t degraded = 0;  // served by a fallback tier (not shed)
  uint64_t answered = 0;
  uint64_t covered = 0;   // answered and lo <= truth <= hi

  uint64_t failed() const { return shed + rejected; }
  double failed_fraction() const;
  /// Coverage over answered requests only (0 when none were answered).
  double coverage_answered() const;
  void Add(const Tally& other);
};

/// Outstanding-request samples of one pass grow when the median of the
/// last quarter exceeds `factor` times the first quarter's median plus
/// `slack` requests. Medians keep a transient stall from reading as
/// growth; the slack absorbs the batcher's own holding of up to B
/// requests per shard. Fewer than 4 samples never count as growth.
bool BacklogGrows(const std::vector<double>& outstanding, double factor,
                  double slack);

/// A rung is judged in `windows` consecutive windows of its requests. A
/// window meets the rule when its p99 latency is within the limit, at
/// most max_failed_fraction of its requests failed, and the generator's
/// p90 lateness is within its limit. Genuine overload (a growing queue,
/// or a generator that cannot offer the rate) fails every window after
/// the first; a transient host stall fails one or two. So a rung needs
/// only min_windows windows to meet the rule.
struct LadderRule {
  double p99_limit_us = 1000.0;
  double max_failed_fraction = 0.01;
  double lateness_p90_limit_us = 100.0;
  int windows = 5;
  int min_windows = 2;
};

/// Windows that meet `rule`. `latency_us` and `lateness_us` are per
/// request in send order (failed requests have +inf latency); both split
/// into rule.windows contiguous parts.
int WindowsWithinLimit(const std::vector<double>& latency_us,
                       const std::vector<double>& lateness_us,
                       const LadderRule& rule);

/// One rung of the sustained-rate ladder.
struct RungResult {
  double offered_qps = 0.0;
  double achieved_qps = 0.0;  // responses published / pass wall time
  double p99_us = 0.0;        // whole rung; failed requests count as +inf
  uint64_t attempted = 0;
  uint64_t failed = 0;
  int windows_within_limit = 0;
  bool backlog_grows = false;
};

/// True when at least rule.min_windows windows met the rule and the
/// backlog did not grow.
bool RungPasses(const RungResult& rung, const LadderRule& rule);

/// One climb of the ladder: runs the rungs of `rates` (ascending) in
/// turn through `run` and stops at the first rung that fails `rule`
/// twice in a row. A failing rung is run once more: a host stall rarely
/// hits both runs, while overload fails both. Returns the achieved rate
/// of the last rung that passed, 0 when the lowest rung fails.
double Climb(const std::vector<double>& rates,
             const std::function<RungResult(double)>& run,
             const LadderRule& rule);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
