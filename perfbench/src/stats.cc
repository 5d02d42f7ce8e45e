#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

namespace perfbench {

namespace {

size_t NearestRank(size_t n, double q) {
  const double rank = std::ceil(q * static_cast<double>(n));
  return std::clamp<size_t>(static_cast<size_t>(rank), 1, n);
}

}  // namespace

double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  return sorted[NearestRank(sorted.size(), q) - 1];
}

double PercentileOf(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  return Percentile(values, q);
}

size_t SamplesBeyond(size_t n, double q) {
  if (n == 0) return 0;
  return n - NearestRank(n, q);
}

bool Supported(size_t n, double q) {
  return SamplesBeyond(n, q) >= kMinSamplesBeyond;
}

double HighestSupportedPercentile(size_t n) {
  static constexpr double kLadder[] = {0.9999, 0.999, 0.99, 0.9, 0.5};
  for (const double q : kLadder) {
    if (Supported(n, q)) return q;
  }
  return 0.0;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(values.begin(), values.begin() + mid);
  return 0.5 * (lower + upper);
}

bool PathSumAddsUp(double path_sum_fraction, double overhead_fraction,
                   double tolerance) {
  return std::isfinite(path_sum_fraction) &&
         std::abs(path_sum_fraction - 1.0) <=
             std::abs(overhead_fraction) + tolerance;
}

double Tally::failed_fraction() const {
  return attempted == 0 ? 0.0
                        : static_cast<double>(failed()) /
                              static_cast<double>(attempted);
}

double Tally::coverage_answered() const {
  return answered == 0 ? 0.0
                       : static_cast<double>(covered) /
                             static_cast<double>(answered);
}

void Tally::Add(const Tally& other) {
  attempted += other.attempted;
  shed += other.shed;
  rejected += other.rejected;
  degraded += other.degraded;
  answered += other.answered;
  covered += other.covered;
}

bool BacklogGrows(const std::vector<double>& outstanding, double factor,
                  double slack) {
  const size_t n = outstanding.size();
  if (n < 4) return false;
  const auto quarter = static_cast<std::ptrdiff_t>(n / 4);
  const double first = Median(
      std::vector<double>(outstanding.begin(), outstanding.begin() + quarter));
  const double last = Median(
      std::vector<double>(outstanding.end() - quarter, outstanding.end()));
  return last > factor * first + slack;
}

int WindowsWithinLimit(const std::vector<double>& latency_us,
                       const std::vector<double>& lateness_us,
                       const LadderRule& rule) {
  const size_t windows = static_cast<size_t>(std::max(rule.windows, 1));
  auto part = [windows](const std::vector<double>& v, size_t w) {
    const size_t n = v.size();
    std::vector<double> out(
        v.begin() + static_cast<std::ptrdiff_t>(n * w / windows),
        v.begin() + static_cast<std::ptrdiff_t>(n * (w + 1) / windows));
    std::sort(out.begin(), out.end());
    return out;
  };
  int within = 0;
  for (size_t w = 0; w < windows; ++w) {
    const std::vector<double> latency = part(latency_us, w);
    if (latency.empty()) continue;
    const size_t failed = static_cast<size_t>(
        std::count_if(latency.begin(), latency.end(),
                      [](double v) { return std::isinf(v); }));
    if (Percentile(latency, 0.99) <= rule.p99_limit_us &&
        static_cast<double>(failed) <=
            rule.max_failed_fraction * static_cast<double>(latency.size()) &&
        Percentile(part(lateness_us, w), 0.9) <= rule.lateness_p90_limit_us) {
      ++within;
    }
  }
  return within;
}

bool RungPasses(const RungResult& rung, const LadderRule& rule) {
  return rung.attempted > 0 && !rung.backlog_grows &&
         rung.windows_within_limit >= rule.min_windows;
}

double Climb(const std::vector<double>& rates,
             const std::function<RungResult(double)>& run,
             const LadderRule& rule) {
  double sustained = 0.0;
  for (const double qps : rates) {
    RungResult rung = run(qps);
    if (!RungPasses(rung, rule)) rung = run(qps);
    if (!RungPasses(rung, rule)) break;
    sustained = rung.achieved_qps;
  }
  return sustained;
}

}  // namespace perfbench
