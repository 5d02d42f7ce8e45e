// prof-smoke suite: the sampling profiler's concurrency and crash
// contracts. Signal-safety is exercised by arming the profiler under an
// oversubscribed ParallelFor hammer (tools/run_tsan_obs.sh runs this
// suite under TSan); folded-output well-formedness and span-label
// attribution are checked on real captures; the resource counters
// backing span accounting must be monotone; a process that never armed
// the profiler carries no prof.* metric; and a death test proves a
// crashed run still leaves a parseable partial profile.
//
// gtest_discover_tests runs each case in its own process, so every case
// owns the (process-global) profiler state it starts.
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"

namespace confcard {
namespace obs {
namespace {

std::string TempPath(const char* name) {
  const char* dir = std::getenv("TMPDIR");
  if (dir == nullptr || dir[0] == '\0') dir = "/tmp";
  return std::string(dir) + "/confcard_prof_" + std::to_string(::getpid()) +
         "_" + name;
}

// Burns roughly `ms` of thread CPU time (the clock sampling runs on),
// so sample yields are deterministic even on a loaded 1-core host.
void BurnCpuMillis(double ms) {
  const double end = prof::ThreadCpuMicros() + ms * 1000.0;
  volatile double sink = 1.0;
  while (prof::ThreadCpuMicros() < end) {
    for (int i = 0; i < 4000; ++i) sink = sink * 1.0000001 + 1e-9;
  }
}

// Validates every line of a folded profile: `stack COUNT` with a
// positive integer count after the last space and no empty frames.
// Writes the number of lines (0 for a missing/empty file) to `*lines`.
// Void-returning because ASSERT_* requires it.
void CheckFoldedFile(const std::string& path, size_t* lines_out) {
  *lines_out = 0;
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return;
  size_t lines = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++lines;
    const size_t space = line.find_last_of(' ');
    ASSERT_NE(space, std::string::npos) << line;
    ASSERT_GT(space, 0u) << line;
    const std::string count = line.substr(space + 1);
    ASSERT_FALSE(count.empty()) << line;
    EXPECT_EQ(count.find_first_not_of("0123456789"), std::string::npos)
        << line;
    EXPECT_NE(count, "0") << line;
    // Frames: non-empty between ';' separators (sanitization maps ';'
    // and '\n' inside symbol names to ':').
    const std::string stack = line.substr(0, space);
    size_t begin = 0;
    for (;;) {
      const size_t semi = stack.find(';', begin);
      const size_t len =
          (semi == std::string::npos ? stack.size() : semi) - begin;
      EXPECT_GT(len, 0u) << line;
      if (semi == std::string::npos) break;
      begin = semi + 1;
    }
  }
  *lines_out = lines;
}

size_t ReturnsCheckedLines(const std::string& path) {
  size_t lines = 0;
  CheckFoldedFile(path, &lines);
  return lines;
}

TEST(ProfilerSmokeTest, SamplesUnderParallelHammerAndWritesWellFormed) {
  const std::string path = TempPath("hammer.folded");
  std::remove(path.c_str());
  const int saved = CurrentThreads();
  SetThreads(8);
  ASSERT_TRUE(prof::StartProfiler(path, 2000).ok());
  EXPECT_TRUE(prof::ProfilerEnabled());
  EXPECT_EQ(prof::SamplingHz(), 2000);
  // Oversubscribed hammer: 8 pool threads register mid-profile and take
  // SIGPROF while racing over chunks. Spans exercise the label stack on
  // every worker.
  for (int round = 0; round < 4; ++round) {
    ParallelFor(32, 1, [&](size_t begin, size_t end) {
      TraceSpan span("proftest.chunk");
      for (size_t i = begin; i < end; ++i) BurnCpuMillis(2.0);
    });
  }
  ASSERT_TRUE(prof::StopProfilerAndWrite().ok());
  EXPECT_FALSE(prof::ProfilerEnabled());
  SetThreads(saved);
  EXPECT_GT(prof::SampleCount(), 0u);
  const size_t lines = ReturnsCheckedLines(path);
  EXPECT_GT(lines, 0u);
  std::remove(path.c_str());
}

TEST(ProfilerSmokeTest, SpanLabelsAttributeSamples) {
  const std::string path = TempPath("labels.folded");
  std::remove(path.c_str());
  ASSERT_TRUE(prof::StartProfiler(path, 2000).ok());
  EXPECT_EQ(prof::SpanLabelDepth(), 0);
  {
    TraceSpan outer("proftest.outer");
    EXPECT_EQ(prof::SpanLabelDepth(), 1);
    TraceSpan inner("proftest.inner");
    EXPECT_EQ(prof::SpanLabelDepth(), 2);
    BurnCpuMillis(100.0);  // ~200 samples at 2000 Hz, all inside both
  }
  EXPECT_EQ(prof::SpanLabelDepth(), 0);
  const std::string folded = prof::RenderFoldedProfile();
  ASSERT_TRUE(prof::StopProfilerAndWrite().ok());
  // Span labels lead the stack as pseudo-frames, outermost first.
  EXPECT_NE(folded.find("proftest.outer;proftest.inner;"),
            std::string::npos)
      << folded.substr(0, 2000);
  std::remove(path.c_str());
}

TEST(ProfilerSmokeTest, ResourceCountersAreMonotonic) {
  const uint64_t count0 = prof::ThreadAllocCount();
  const uint64_t bytes0 = prof::ThreadAllocBytes();
  {
    std::vector<char*> blocks;
    for (int i = 0; i < 16; ++i) blocks.push_back(new char[1024]);
    for (char* b : blocks) delete[] b;
  }
  const uint64_t count1 = prof::ThreadAllocCount();
  const uint64_t bytes1 = prof::ThreadAllocBytes();
  EXPECT_GE(count1, count0 + 16);  // frees never decrement the counters
  EXPECT_GE(bytes1, bytes0 + 16 * 1024);

  const double cpu0 = prof::ThreadCpuMicros();
  BurnCpuMillis(5.0);
  const double cpu1 = prof::ThreadCpuMicros();
  EXPECT_GE(cpu1, cpu0 + 4000.0);

  uint64_t vol0 = 0, invol0 = 0, vol1 = 0, invol1 = 0;
  prof::ThreadContextSwitches(&vol0, &invol0);
  BurnCpuMillis(1.0);
  prof::ThreadContextSwitches(&vol1, &invol1);
  EXPECT_GE(vol1, vol0);
  EXPECT_GE(invol1, invol0);
}

// Names of every registered prof.* counter, gauge and histogram.
std::vector<std::string> ProfMetricNames() {
  const MetricsRegistry::Snapshot snap = Metrics().TakeSnapshot();
  std::vector<std::string> names;
  auto collect = [&names](const std::string& name) {
    if (name.rfind("prof.", 0) == 0) names.push_back(name);
  };
  for (const auto& entry : snap.counters) collect(entry.first);
  for (const auto& entry : snap.gauges) collect(entry.first);
  for (const auto& entry : snap.histograms) collect(entry.first);
  return names;
}

// Profiler-off runs leave clean artifacts: however much instrumented
// work runs, no prof.* metric exists until the profiler first arms.
// One Start/Stop cycle then registers them, which shows the check can
// see what it looks for.
TEST(ProfilerSmokeTest, NoProfMetricsBeforeFirstArming) {
  ASSERT_FALSE(prof::ProfilerEnabled());
  ParallelFor(16, 1, [](size_t begin, size_t end) {
    TraceSpan span("proftest.unarmed");
    for (size_t i = begin; i < end; ++i) BurnCpuMillis(0.2);
  });
  const std::vector<std::string> before = ProfMetricNames();
  EXPECT_TRUE(before.empty()) << "first: " << before.front();

  const std::string path = TempPath("first_arming.folded");
  ASSERT_TRUE(prof::StartProfiler(path, 99).ok());
  ASSERT_TRUE(prof::StopProfilerAndWrite().ok());
  EXPECT_FALSE(ProfMetricNames().empty());
  std::remove(path.c_str());
}

TEST(ProfilerCrashTest, FatalSignalFlushesPartialProfile) {
  const std::string path = TempPath("crash.folded");
  std::remove(path.c_str());
  EXPECT_EXIT(
      {
        if (!prof::StartProfiler(path, 2000).ok()) std::exit(3);
        BurnCpuMillis(150.0);  // fill the ring with samples, no drain
        std::raise(SIGSEGV);
      },
      ::testing::KilledBySignal(SIGSEGV), "");
  // The crash flush writes raw (unsymbolized) count-1 lines straight
  // from the rings; they must still parse as a folded profile.
  const size_t lines = ReturnsCheckedLines(path);
  EXPECT_GT(lines, 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace obs
}  // namespace confcard
