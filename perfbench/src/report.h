// What one benchmark run produces: metrics by name with their units,
// the correctness verdict, operation counts and a host/config stamp.
#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Report {
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  /// Host and configuration stamp, rendered as one JSON object.
  std::map<std::string, std::string> stamp;
  bool correct = true;
  std::vector<std::string> failures;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  /// Records a correctness check; a failing one fails the run.
  void Check(bool ok, const std::string& what) {
    std::fprintf(stderr, "check %-4s %s\n", ok ? "ok" : "FAIL", what.c_str());
    if (!ok) {
      correct = false;
      failures.push_back(what);
    }
  }
  void E2e(const std::string& name, double value, const char* unit) {
    end_to_end[name] = {value, unit};
  }
  void Layer(const std::string& name, double value, const char* unit) {
    per_layer[name] = {value, unit};
  }
};

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
