// Host facts every result is stamped with.
#ifndef PERFBENCH_HOST_H_
#define PERFBENCH_HOST_H_

namespace perfbench {

/// CPUs this process may run on.
int OnlineCpus();

/// Effective parallelism from a spin calibration: the same fixed spin
/// loop runs on one thread, then on `threads` threads at once, and the
/// result is threads * t_one / t_all (threads on a host with that many
/// free cores; less when other tenants take cycles).
double EffectiveCores(int threads);

/// SIMD ISA the library was compiled for ("avx2" or "baseline").
const char* SimdIsa();

/// Peak resident set size of this process, MiB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_HOST_H_
