// ConfCard benchmark binary.
//
//   perfbench --workload <serve_steady|serve_drift_feedback|offline_pi>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--commit <id>] [--spans <path>]
//
// Prints every metric by name with its unit, a host/config stamp, and as
// the last line of standard output one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Exits 1 when a correctness check fails, 2 on bad usage.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "host.h"
#include "report.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct MetricName {
  const char* name;
  const char* unit;
};

// Every per-layer metric, reported by every workload; a layer the
// workload does not exercise reads 0.
constexpr MetricName kPerLayer[] = {
    {"serve.submit_ns.p50", "ns"},
    {"serve.submit_ns.p99", "ns"},
    {"serve.queue_wait_us.p50", "us"},
    {"serve.queue_wait_us.p99", "us"},
    {"serve.service_us.p50", "us"},
    {"serve.service_us.p99", "us"},
    {"serve.batch_size.mean", "count"},
    {"serve.batches", "count"},
    {"serve.shed_fraction", "ratio"},
    {"serve.degraded_fraction", "ratio"},
    {"serve.hot_path_allocs", "count"},
    {"serve.observe_ns.p50", "ns"},
    {"serve.observe_ns.p99", "ns"},
    {"serve.feedback_dropped_fraction", "ratio"},
    {"serve.drift_stage_max", "count"},
    {"serve.latency_p99_us.low", "us"},
    {"serve.latency_p99_us.high", "us"},
    {"serve.sustained_qps", "1/s"},
    {"gen.lateness_us.p99", "us"},
    {"gen.backlog_max", "count"},
    {"gen.valid_fraction", "ratio"},
    {"ce.featurize_ns_per_query", "ns"},
    {"ce.lwnn_batch_us.b32", "us"},
    {"ce.guard_batch_us.b32", "us"},
    {"ce.fallback_batch_us.b32", "us"},
    {"ce.residual_observe_ns", "ns"},
    {"ce.train_s.mscn", "s"},
    {"ce.train_s.naru", "s"},
    {"ce.train_s.lwnn", "s"},
    {"ce.infer_us_per_query.mscn", "us"},
    {"ce.infer_us_per_query.naru", "us"},
    {"conformal.invert_ns", "ns"},
    {"conformal.online_observe_ns", "ns"},
    {"harness.scp_s.mscn", "s"},
    {"harness.jkcv_s.mscn", "s"},
    {"harness.lwscp_s.mscn", "s"},
    {"harness.cqr_s.mscn", "s"},
    {"harness.scp_s.naru", "s"},
    {"harness.jkcv_s.naru", "s"},
    {"harness.lwscp_s.naru", "s"},
    {"harness.cqr_s.naru", "s"},
    {"harness.scp_s.lwnn", "s"},
    {"harness.jkcv_s.lwnn", "s"},
    {"harness.lwscp_s.lwnn", "s"},
    {"harness.cqr_s.lwnn", "s"},
    {"query.label_s", "s"},
    {"exec.count_us_per_query", "us"},
    {"data.table_gen_s", "s"},
    {"data.drift_stream_s", "s"},
    {"trace.overhead_fraction", "ratio"},
    {"trace.path_sum_fraction", "ratio"},
    {"trace.unattributed_fraction", "ratio"},
    {"host.peak_rss_mb", "MB"},
};

// Fills per-layer metrics a workload does not exercise with 0 and fails
// the run if it reported a name outside kPerLayer.
void CompletePerLayer(Report* report) {
  std::map<std::string, Metric> all;
  for (const MetricName& m : kPerLayer) all[m.name] = {0.0, m.unit};
  for (const auto& [name, m] : report->per_layer) {
    const auto it = all.find(name);
    report->Check(it != all.end() && it->second.unit == m.unit,
                  "per-layer metric " + name + " is declared");
    all[name] = m;
  }
  report->per_layer = std::move(all);
}

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <serve_steady|"
               "serve_drift_feedback|offline_pi> --seed <n> --seconds <s> "
               "--trace <0|1> [--commit <id>] [--spans <path>]\n");
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

// Shortest round-trip rendering: every digit as measured.
std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::map<std::string, Metric>& metrics) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!first) out += ", ";
    first = false;
    out += JsonString(name) + ": {\"value\": " + JsonNumber(m.value) +
           ", \"unit\": " + JsonString(m.unit) + "}";
  }
  return out + "}";
}

std::string StampJson(const std::map<std::string, std::string>& stamp) {
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : stamp) {
    if (!first) out += ", ";
    first = false;
    out += JsonString(key) + ": " + JsonString(value);
  }
  return out + "}";
}

int Main(int argc, char** argv) {
  std::string workload;
  std::string commit = "unknown";
  std::string spans_path;
  long long seed = -1;
  double seconds = -1.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::atoll(value);
    } else if (flag == "--seconds") {
      seconds = std::atof(value);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--commit") {
      commit = value;
    } else if (flag == "--spans") {
      spans_path = value;
    } else {
      Usage();
      return 2;
    }
  }
  const bool known = workload == "serve_steady" ||
                     workload == "serve_drift_feedback" ||
                     workload == "offline_pi";
  if (argc % 2 != 1 || !known || seed < 0 || !(seconds > 0.0) ||
      seconds > 600.0 || (trace != 0 && trace != 1)) {
    Usage();
    return 2;
  }

  Report report;
  report.stamp["workload"] = workload;
  report.stamp["seed"] = std::to_string(seed);
  report.stamp["seconds"] = JsonNumber(seconds);
  report.stamp["trace"] = std::to_string(trace);
  report.stamp["commit"] = commit;
  report.stamp["nproc"] = std::to_string(OnlineCpus());
  report.stamp["effective_cores"] = JsonNumber(EffectiveCores(OnlineCpus()));
  report.stamp["simd_isa"] = SimdIsa();

  RunOptions options;
  options.seed = static_cast<uint64_t>(seed);
  options.seconds = seconds;
  options.trace = trace == 1;
  SpanRecorder spans;
  if (workload == "offline_pi") {
    RunOffline(options, &report, &spans);
  } else {
    RunServing(options, workload == "serve_drift_feedback", &report, &spans);
  }
  const double rss = PeakRssMb();
  if (options.trace) {
    report.Layer("host.peak_rss_mb", rss, "MB");
    CompletePerLayer(&report);
  } else if (report.end_to_end.count("peak_rss_mb") == 0) {
    report.E2e("peak_rss_mb", rss, "MB");
  }

  const auto& metrics = options.trace ? report.per_layer : report.end_to_end;
  for (const auto& [name, m] : metrics) {
    std::printf("metric %-36s %18.6f %s\n", name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("stamp %s\n", StampJson(report.stamp).c_str());
  if (options.trace && !spans_path.empty()) {
    if (spans.WriteJson(spans_path)) {
      std::fprintf(stderr, "wrote %zu spans to %s\n", spans.size(),
                   spans_path.c_str());
    } else {
      report.Check(false, "writing spans to " + spans_path);
    }
  }
  for (const std::string& f : report.failures) {
    std::fprintf(stderr, "FAILED CHECK: %s\n", f.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              MetricsJson(metrics).c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
