// Shared plumbing of the benchmark workloads: run options, the metric
// report (table + one JSON line), sample statistics, the open-loop wait,
// process memory, and the traced-run analysis (chrome export + per-
// segment critical-path attribution).
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/status.hpp"
#include "obs/trace.hpp"

namespace perfbench {

namespace obs = everest::obs;
using Clock = std::chrono::steady_clock;

struct RunOptions {
  std::uint64_t seed = 1;
  /// Length of the timed phase(s).
  double seconds = 10.0;
  /// Also run the traced repetition and report the per-layer breakdown.
  bool trace = false;
  /// Scratch directory for WALs (created fresh per run).
  std::string workdir;
  /// Where a traced run writes its chrome trace.
  std::string trace_out;
};

/// Every metric a run measured plus its correctness checks. Printed as
/// a human-readable table followed by one JSON line that the run.py
/// wrapper turns into the benchmark's result object.
class Report {
 public:
  /// Records a metric. `samples` is the number of observations behind it
  /// (0 = a single measurement or a count).
  void set(const std::string& name, double value, const std::string& unit,
           std::uint64_t samples = 0);
  /// Records a failed check when `ok` is false.
  void check(bool ok, const std::string& what);
  /// Operations of the timed phase and how many of them failed.
  void count(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ = attempted;
    failed_ = failed;
  }
  [[nodiscard]] bool correct() const { return failures_.empty(); }
  void print(std::FILE* out, const std::string& workload) const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::uint64_t samples = 0;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Set-up steps must succeed: on error, prints it and exits with code 1
/// (the run cannot measure anything without its stack).
void require(const everest::Status& status, const char* what);

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

[[nodiscard]] inline double us_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}
[[nodiscard]] inline double ns_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}
[[nodiscard]] inline double s_between(Clock::time_point a,
                                      Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Process high-water resident set (VmHWM), in MiB.
[[nodiscard]] double peak_rss_mb();

/// Traced-run epilogue shared by every workload: collects the tracer's
/// spans, exports them as a chrome trace to `options.trace_out` (checked
/// with obs::validate_chrome_trace here, and by tools/trace_lint in
/// run.py), and reports trace.* per-segment times of the serving request
/// chains, obs.spans_dropped and obs.trace_overhead_ratio
/// (traced / untraced goodput).
void report_trace(const obs::Tracer& tracer, const RunOptions& options,
                  double untraced_goodput, double traced_goodput,
                  Report* report);

}  // namespace perfbench
