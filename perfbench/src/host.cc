#include "host.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "stats.h"

namespace perfbench {

namespace {

// A dependent multiply-add chain the compiler cannot fold; the result is
// published so the loop is not removed.
std::atomic<uint64_t> g_sink{0};

double SpinSeconds(uint64_t iterations) {
  const auto start = std::chrono::steady_clock::now();
  uint64_t x = 88172645463325252ULL;
  for (uint64_t i = 0; i < iterations; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
  }
  g_sink.fetch_add(x, std::memory_order_relaxed);
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

int OnlineCpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

double EffectiveCores(int threads) {
  constexpr uint64_t kIterations = 20'000'000;  // ~20 ms per thread
  std::vector<double> one;
  for (int rep = 0; rep < 3; ++rep) one.push_back(SpinSeconds(kIterations));
  const double t_one = Median(one);
  const auto start = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([] { SpinSeconds(kIterations); });
    }
    for (std::thread& th : pool) th.join();
  }
  const double t_all =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (t_all <= 0.0) return static_cast<double>(threads);
  return static_cast<double>(threads) * t_one / t_all;
}

const char* SimdIsa() { return PERFBENCH_ISA; }

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
