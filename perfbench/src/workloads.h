// The benchmark's workloads. Each builds its inputs from the run seed,
// sets up (several times, reporting the median set-up time), measures
// for the requested number of seconds and checks its outputs.
//
// Untraced runs fill Report::end_to_end; traced runs fill
// Report::per_layer from spans recorded around calls into each layer's
// public functions.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "report.h"
#include "spans.h"

namespace perfbench {

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// serve_steady (drift = false) and serve_drift_feedback (drift = true).
void RunServing(const RunOptions& options, bool drift, Report* report,
                SpanRecorder* spans);

/// offline_pi: the Figure-1 pipeline.
void RunOffline(const RunOptions& options, Report* report,
                SpanRecorder* spans);

/// Runs the Figure-1 pipeline once, traced, and reports its layers:
/// ce.train_s.mscn/.naru, ce.infer_us_per_query.*, harness.*. The
/// traced serve_steady run calls it, so that a gated workload measures
/// these layers.
void TracePipelineLayers(const RunOptions& options, Report* report,
                         SpanRecorder* spans);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
