// Parallel-speedup bench: serial vs pooled wall clock for the two hot
// loops the thread pool accelerates — JK-CV+ fold training/evaluation
// and the blocked GEMM kernels — swept over 1/2/4 threads. Emits
// BENCH_parallel.json with per-thread-count wall times and speedups
// relative to 1 thread, plus a correctness cross-check that every sweep
// produced bit-identical results. On a single-core host the speedups
// honestly report ~1.0x (oversubscription), which is the expected
// reading there.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/parallel.h"
#include "common/stopwatch.h"
#include "nn/layers.h"
#include "nn/simd.h"
#include "nn/tensor.h"
#include "obs/profiler.h"

namespace confcard {
namespace {

constexpr int kThreadCounts[] = {1, 2, 4};

struct Sweep {
  std::vector<double> millis;    // one entry per kThreadCounts
  bool identical = true;         // results bit-identical across counts
};

Sweep SweepJkCv(const Table& table, const bench::Splits& splits) {
  Sweep sweep;
  std::vector<std::vector<double>> lows;
  for (int threads : kThreadCounts) {
    SetThreads(threads);
    // Fresh harness per count: the estimate cache must not let a later
    // sweep reuse inference paid for by an earlier one.
    SingleTableHarness::Options opts;
    opts.jk_folds = 4;
    SingleTableHarness h(table, splits.train, splits.calib, splits.test,
                         opts);
    LwnnEstimator proto(bench::LwnnDefaults());
    CONFCARD_CHECK(proto.Train(table, splits.train).ok());
    Stopwatch watch;
    MethodResult r = h.RunJkCv(proto, proto, /*simplified=*/false);
    sweep.millis.push_back(watch.ElapsedMillis());
    std::vector<double> lo;
    lo.reserve(r.rows.size());
    for (const PiRow& row : r.rows) lo.push_back(row.lo);
    lows.push_back(std::move(lo));
    std::printf("jk-cv+  threads=%d  %8.1f ms  coverage=%.3f\n", threads,
                sweep.millis.back(), r.coverage);
  }
  for (size_t i = 1; i < lows.size(); ++i) {
    if (lows[i] != lows[0]) sweep.identical = false;
  }
  return sweep;
}

Sweep SweepGemm() {
  Sweep sweep;
  Rng rng(19);
  const size_t n = 192, k = 256, m = 192;
  nn::Tensor a = nn::Tensor::Randn(n, k, 1.0f, rng);
  nn::Tensor b = nn::Tensor::Randn(k, m, 1.0f, rng);
  const int reps = 40;
  std::vector<nn::Tensor> products;
  for (int threads : kThreadCounts) {
    SetThreads(threads);
    nn::Tensor c = nn::MatMul(a, b);  // warm the pool before timing
    Stopwatch watch;
    for (int r = 0; r < reps; ++r) c = nn::MatMul(a, b);
    sweep.millis.push_back(watch.ElapsedMillis());
    products.push_back(std::move(c));
    std::printf("gemm    threads=%d  %8.1f ms (%d reps of %zux%zux%zu)\n",
                threads, sweep.millis.back(), reps, n, k, m);
  }
  for (size_t i = 1; i < products.size(); ++i) {
    if (products[i].data() != products[0].data()) sweep.identical = false;
  }
  return sweep;
}

// ------------------------------------------------------------------
// Kernel microbench: scalar vs SIMD GFLOP/s for each GEMM variant and
// the dense inference kernel (AffineRows, bias+ReLU fused in registers)
// at the three deployed model shapes
// (MSCN set/final MLPs, Naru's MADE hidden layer, LW-NN's funnel).
// Single-threaded on purpose — this isolates raw kernel throughput
// from pool scaling, which the sweeps above already measure.
// ------------------------------------------------------------------

struct KernelResult {
  std::string name;
  double scalar_gflops = 0.0;
  double simd_gflops = 0.0;
  bool identical = true;
};

// Times `fn` (which must write its output into `out`) at both SIMD
// settings and cross-checks bit identity of the two outputs.
template <typename Fn>
KernelResult TimeKernel(const std::string& name, size_t flops_per_call,
                        const Fn& fn) {
  KernelResult result;
  result.name = name;
  // Enough reps that the faster path still accumulates ~40ms+.
  const int reps =
      static_cast<int>(std::max<size_t>(20, (size_t{1} << 27) / flops_per_call));
  nn::Tensor scalar_out, simd_out;
  double millis[2] = {0.0, 0.0};
  for (int pass = 0; pass < 2; ++pass) {
    const bool simd = pass == 1;
    nn::SetSimdEnabled(simd);
    nn::Tensor out = fn();  // warmup (and the identity sample)
    Stopwatch watch;
    for (int r = 0; r < reps; ++r) out = fn();
    millis[pass] = watch.ElapsedMillis();
    (simd ? simd_out : scalar_out) = std::move(out);
  }
  nn::SetSimdEnabled(true);
  result.scalar_gflops = static_cast<double>(flops_per_call) * reps /
                         (millis[0] * 1e6);
  result.simd_gflops = static_cast<double>(flops_per_call) * reps /
                       (millis[1] * 1e6);
  result.identical =
      scalar_out.size() == simd_out.size() &&
      std::memcmp(scalar_out.data().data(), simd_out.data().data(),
                  scalar_out.size() * sizeof(float)) == 0;
  std::printf("kernel  %-22s scalar %6.2f GFLOP/s  simd %6.2f  (%.2fx)%s\n",
              result.name.c_str(), result.scalar_gflops, result.simd_gflops,
              result.simd_gflops / result.scalar_gflops,
              result.identical ? "" : "  NOT IDENTICAL");
  return result;
}

std::vector<KernelResult> SweepKernels() {
  SetThreads(1);
  std::vector<KernelResult> results;
  struct Shape {
    const char* tag;
    size_t n, k, m;
  };
  // batch x in -> out at each model's deployed width (bench_common.h).
  const Shape shapes[] = {
      {"mscn_96", 256, 96, 96},    // MSCN set/final MLPs
      {"naru_64", 256, 64, 64},    // Naru MADE hidden layer
      {"lwnn_32x16", 256, 32, 16},  // LW-NN funnel
  };
  Rng rng(7);
  for (const Shape& s : shapes) {
    const size_t flops = 2 * s.n * s.k * s.m;
    {
      nn::Tensor a = nn::Tensor::Randn(s.n, s.k, 1.0f, rng);
      nn::Tensor b = nn::Tensor::Randn(s.k, s.m, 1.0f, rng);
      results.push_back(TimeKernel(std::string("matmul/") + s.tag, flops,
                                   [&] { return nn::MatMul(a, b); }));
    }
    {
      nn::Tensor a = nn::Tensor::Randn(s.k, s.n, 1.0f, rng);
      nn::Tensor b = nn::Tensor::Randn(s.k, s.m, 1.0f, rng);
      results.push_back(TimeKernel(std::string("matmul_ta/") + s.tag, flops,
                                   [&] { return nn::MatMulTransA(a, b); }));
    }
    {
      nn::Tensor a = nn::Tensor::Randn(s.n, s.k, 1.0f, rng);
      nn::Tensor b = nn::Tensor::Randn(s.m, s.k, 1.0f, rng);
      results.push_back(TimeKernel(std::string("matmul_tb/") + s.tag, flops,
                                   [&] { return nn::MatMulTransB(a, b); }));
    }
    {
      nn::Dense dense(s.k, s.m, rng);
      nn::Tensor in = nn::Tensor::Randn(s.n, s.k, 1.0f, rng);
      results.push_back(
          TimeKernel(std::string("dense_fused/") + s.tag, flops, [&] {
            nn::Tensor out = nn::Tensor::Uninitialized(s.n, s.m);
            nn::AffineRows(in.RowPtr(0), s.n, dense.weight().value,
                           dense.bias().value.RowPtr(0), /*relu=*/true,
                           out.RowPtr(0));
            return out;
          }));
    }
  }
  return results;
}

// ------------------------------------------------------------------
// Dispatch-allocation gate: after warmup, issuing a ParallelFor must
// perform ZERO heap allocations on the issuing thread — the loop
// descriptor is stack-allocated and helper slots go through the pool's
// preallocated ring. Measured with the operator-new counters the
// profiler maintains per thread (obs/profiler.h).
// ------------------------------------------------------------------

struct DispatchAllocs {
  double allocs_per_call = 0.0;
  bool passed = false;
};

DispatchAllocs MeasureDispatchAllocs() {
  SetThreads(4);
  std::atomic<uint64_t> sink{0};
  auto body = [&sink](size_t begin, size_t end) {
    sink.fetch_add(end - begin, std::memory_order_relaxed);
  };
  // Warmup: pool creation, metric registration, lazy statics.
  for (int i = 0; i < 8; ++i) ParallelFor(1024, 16, body);
  const int calls = 200;
  const uint64_t before = obs::prof::ThreadAllocCount();
  for (int i = 0; i < calls; ++i) ParallelFor(1024, 16, body);
  const uint64_t after = obs::prof::ThreadAllocCount();
  DispatchAllocs result;
  result.allocs_per_call =
      static_cast<double>(after - before) / static_cast<double>(calls);
  result.passed = after == before;
  std::printf("dispatch allocs/call after warmup: %.3f (%s)\n",
              result.allocs_per_call, result.passed ? "pass" : "FAIL");
  return result;
}

void WriteSweep(obs::JsonWriter* w, const char* name, const Sweep& sweep) {
  w->Key(name).BeginObject();
  w->Key("threads").BeginArray();
  for (int t : kThreadCounts) w->Int(static_cast<uint64_t>(t));
  w->EndArray();
  w->Key("millis").BeginArray();
  for (double ms : sweep.millis) w->Number(ms);
  w->EndArray();
  w->Key("speedup").BeginArray();
  for (double ms : sweep.millis) w->Number(sweep.millis[0] / ms);
  w->EndArray();
  w->Key("bit_identical").Bool(sweep.identical);
  w->EndObject();
}

int Main() {
  bench::PrintScaleNote();
  const int saved_threads = CurrentThreads();
  // Detect once and reuse: the gate decision, the console note, and the
  // JSON record must all describe the same machine.
  const int hardware_threads = HardwareThreads();
  std::printf("hardware threads: %d\n", hardware_threads);

  Table table = MakeDmv(bench::DefaultRows(), 3).value();
  bench::Splits splits = bench::MakeSplits(table);

  Sweep jk = SweepJkCv(table, splits);
  Sweep gemm = SweepGemm();
  std::vector<KernelResult> kernels = SweepKernels();
  DispatchAllocs dispatch = MeasureDispatchAllocs();
  SetThreads(saved_threads);

  // Scaling gate: on a host with real cores, 4 threads must at least
  // break even against 1 (the ROADMAP-tracked regression showed 0.88x).
  // On 1–2 core hosts the sweep oversubscribes and the speedup is
  // meaningless, so the gate is skipped — with a note, never silently.
  const bool gate_applicable = hardware_threads >= 4;
  const double jk_speedup4 = jk.millis[0] / jk.millis.back();
  const double gemm_speedup4 = gemm.millis[0] / gemm.millis.back();
  const bool gate_passed =
      !gate_applicable || (jk_speedup4 >= 1.0 && gemm_speedup4 >= 1.0);
  // Recorded verbatim in the JSON so single-core CI artifacts say *why*
  // the gate did not run instead of silently reporting passed=true.
  std::string skip_reason;
  if (!gate_applicable) {
    skip_reason = "only " + std::to_string(hardware_threads) +
                  " hardware thread(s) < 4: oversubscribed sweep, "
                  "speedups not meaningful";
    std::printf("scaling gate skipped: %s\n", skip_reason.c_str());
  } else {
    std::printf("scaling gate: jk-cv+ 4t speedup %.2fx, gemm 4t %.2fx\n",
                jk_speedup4, gemm_speedup4);
  }

  bool kernels_identical = true;
  for (const KernelResult& k : kernels) {
    kernels_identical = kernels_identical && k.identical;
  }

  obs::JsonWriter w;
  w.BeginObject();
  w.Key("bench").String("parallel");
  w.Key("hardware_threads").Int(static_cast<uint64_t>(hardware_threads));
  w.Key("scale").Number(bench::BenchScale());
  w.Key("simd_isa").String(nn::SimdIsaName());
  WriteSweep(&w, "jk_cv", jk);
  WriteSweep(&w, "gemm", gemm);
  w.Key("kernels").BeginArray();
  for (const KernelResult& k : kernels) {
    w.BeginObject();
    w.Key("name").String(k.name);
    w.Key("scalar_gflops").Number(k.scalar_gflops);
    w.Key("simd_gflops").Number(k.simd_gflops);
    w.Key("speedup").Number(k.simd_gflops / k.scalar_gflops);
    w.Key("bit_identical").Bool(k.identical);
    w.EndObject();
  }
  w.EndArray();
  w.Key("dispatch_allocs").BeginObject();
  w.Key("allocs_per_call").Number(dispatch.allocs_per_call);
  w.Key("passed").Bool(dispatch.passed);
  w.EndObject();
  w.Key("scaling_gate").BeginObject();
  w.Key("applicable").Bool(gate_applicable);
  w.Key("passed").Bool(gate_passed);
  w.Key("skip_reason").String(skip_reason);  // empty when the gate ran
  w.EndObject();
  w.EndObject();

  const char* path = "BENCH_parallel.json";
  std::ofstream out(path, std::ios::binary);
  CONFCARD_CHECK_MSG(out.is_open(), "cannot write BENCH_parallel.json");
  out << w.str() << "\n";
  std::printf("wrote %s\n", path);
  CONFCARD_CHECK_MSG(jk.identical && gemm.identical,
                     "thread sweep produced non-identical results");
  CONFCARD_CHECK_MSG(kernels_identical,
                     "scalar vs SIMD kernel outputs differ");
  CONFCARD_CHECK_MSG(dispatch.passed,
                     "ParallelFor dispatch allocated after warmup");
  CONFCARD_CHECK_MSG(gate_passed,
                     "4-thread speedup < 1.0 on a >=4-core host");
  return 0;
}

}  // namespace
}  // namespace confcard

int main() { return confcard::Main(); }
