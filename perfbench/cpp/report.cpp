#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>

#include "common/json.hpp"
#include "common/table.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/critical_path.hpp"

namespace perfbench {

using everest::fmt_double;

void Report::set(const std::string& name, double value,
                 const std::string& unit, std::uint64_t samples) {
  check(std::isfinite(value), name + " is not finite");
  if (!std::isfinite(value)) value = 0.0;
  metrics_.push_back(Metric{name, value, unit, samples});
}

void Report::check(bool ok, const std::string& what) {
  if (!ok) failures_.push_back(what);
}

void Report::print(std::FILE* out, const std::string& workload) const {
  everest::Table table({"metric", "value", "unit", "samples"});
  for (const Metric& m : metrics_) {
    table.add_row({m.name, fmt_double(m.value, 4), m.unit,
                   m.samples == 0 ? "" : std::to_string(m.samples)});
  }
  std::fprintf(out, "=== perfbench %s: %llu attempted, %llu failed ===\n%s",
               workload.c_str(), static_cast<unsigned long long>(attempted_),
               static_cast<unsigned long long>(failed_),
               table.render().c_str());
  for (const std::string& failure : failures_) {
    std::fprintf(out, "CHECK FAILED: %s\n", failure.c_str());
  }
  everest::json::Object metrics;
  for (const Metric& m : metrics_) {
    metrics[m.name] = everest::json::Object{
        {"value", m.value},
        {"unit", m.unit},
        {"samples", static_cast<double>(m.samples)}};
  }
  everest::json::Array failures(failures_.begin(), failures_.end());
  const everest::json::Value line(everest::json::Object{
      {"correct", correct()},
      {"attempted", static_cast<double>(attempted_)},
      {"failed", static_cast<double>(failed_)},
      {"failures", failures},
      {"metrics", metrics}});
  std::fprintf(out, "%s\n", line.dump().c_str());
  std::fflush(out);
}

void require(const everest::Status& status, const char* what) {
  if (status.ok()) return;
  std::fprintf(stderr, "perfbench: %s failed: %s\n", what,
               status.to_string().c_str());
  std::fflush(stdout);
  std::_Exit(1);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

void report_trace(const obs::Tracer& tracer, const RunOptions& options,
                  double untraced_goodput, double traced_goodput,
                  Report* report) {
  const std::vector<obs::TraceEvent> events = tracer.collect();
  report->set("obs.spans_dropped", static_cast<double>(tracer.dropped()),
              "count");
  report->set("obs.trace_overhead_ratio",
              untraced_goodput > 0.0 ? traced_goodput / untraced_goodput : 0.0,
              "ratio");

  const std::string text = obs::chrome_trace(events);
  const everest::Status lint = obs::validate_chrome_trace(text);
  report->check(lint.ok(), "chrome trace invalid: " + lint.to_string());
  std::ofstream(options.trace_out) << text;

  // Serving request chains are the traces that reached a server queue.
  // critical_path is linear in the events it is given, so bucket first.
  std::map<std::uint64_t, std::vector<obs::TraceEvent>> by_trace;
  for (const obs::TraceEvent& ev : events) {
    if (ev.kind == obs::TraceEvent::Kind::kSpan) {
      by_trace[ev.trace_id].push_back(ev);
    }
  }
  double forward = 0.0, queue = 0.0, batch = 0.0, execute = 0.0, reply = 0.0;
  std::uint64_t chains = 0;
  for (auto& [trace_id, spans] : by_trace) {
    const bool served = std::any_of(spans.begin(), spans.end(),
                                    [](const obs::TraceEvent& ev) {
                                      return ev.name == "queue";
                                    });
    if (!served) continue;
    // Federation hop spans carry the fabric's modeled duration, not wall
    // time: they feed trace.forward_us only, and the wall segments are
    // attributed with them removed.
    forward += obs::critical_path(spans, trace_id).forward_us;
    std::erase_if(spans,
                  [](const obs::TraceEvent& ev) { return ev.name == "hop"; });
    const obs::CriticalPath wall = obs::critical_path(spans, trace_id);
    queue += wall.queue_us;
    batch += wall.batch_us;
    execute += wall.execute_us;
    reply += wall.reply_us;
    ++chains;
  }
  if (chains == 0) return;
  const double n = static_cast<double>(chains);
  report->set("trace.forward_us", forward / n, "us.modeled", chains);
  report->set("trace.queue_us", queue / n, "us", chains);
  report->set("trace.batch_us", batch / n, "us", chains);
  report->set("trace.execute_us", execute / n, "us", chains);
  report->set("trace.reply_us", reply / n, "us", chains);
}

}  // namespace perfbench
