#include "obs/flight.hpp"

#include <algorithm>
#include <fstream>

#include "obs/chrome_trace.hpp"

namespace everest::obs {

std::string FlightBundle::trace_json(int indent) const {
  return chrome_trace(events, indent);
}

FlightRecorder::FlightRecorder(const Tracer* tracer,
                               const TimeSeriesStore* tsdb,
                               FlightRecorderConfig config, Registry* registry)
    : tracer_(tracer), tsdb_(tsdb), config_(config) {
  if (config_.max_bundles == 0) config_.max_bundles = 1;
  if (registry != nullptr) {
    triggers_ = registry->counter("obs.flight.triggers");
    suppressed_ = registry->counter("obs.flight.suppressed");
  }
}

std::optional<std::uint64_t> FlightRecorder::trigger(const std::string& reason,
                                                     Annotations notes) {
  const double now_us = tracer_->wall_now_us();
  FlightBundle bundle;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (last_trigger_us_ >= 0.0 &&
        now_us - last_trigger_us_ < config_.min_retrigger_gap_us) {
      ++suppressed_count_;
      if (suppressed_ != nullptr) suppressed_->inc();
      return std::nullopt;
    }
    last_trigger_us_ = now_us;
    ++trigger_count_;
    bundle.seq = next_seq_++;
  }
  if (triggers_ != nullptr) triggers_->inc();

  bundle.reason = reason;
  bundle.triggered_at_us = now_us;
  bundle.window_start_us = std::max(0.0, now_us - config_.retention_us);
  bundle.notes = std::move(notes);
  bundle.events = tracer_->collect_tail(bundle.window_start_us);
  if (tsdb_ != nullptr) {
    bundle.metrics = tsdb_->rollup_json(config_.retention_us);
  }

  if (!config_.dump_dir.empty()) {
    const std::string stem = config_.dump_dir + "/flight-" +
                             std::to_string(bundle.seq) + "-" + reason;
    (void)dump(bundle, stem);  // best effort; the ring keeps the bundle
  }

  const std::uint64_t seq = bundle.seq;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (bundles_.size() >= config_.max_bundles) bundles_.pop_front();
    bundles_.push_back(std::move(bundle));
  }
  return seq;
}

std::optional<FlightBundle> FlightRecorder::bundle(std::size_t index) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (index >= bundles_.size()) return std::nullopt;
  return bundles_[bundles_.size() - 1 - index];
}

std::uint64_t FlightRecorder::triggers() const {
  std::lock_guard<std::mutex> lock(mu_);
  return trigger_count_;
}

std::uint64_t FlightRecorder::suppressed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return suppressed_count_;
}

bool FlightRecorder::dump(const FlightBundle& bundle, const std::string& stem) {
  {
    std::ofstream trace(stem + ".trace.json", std::ios::trunc);
    if (!trace) return false;
    trace << bundle.trace_json(2);
    if (!trace) return false;
  }
  json::Object meta;
  meta["reason"] = json::Value(bundle.reason);
  meta["seq"] = json::Value(static_cast<std::size_t>(bundle.seq));
  meta["triggered_at_us"] = json::Value(bundle.triggered_at_us);
  meta["window_start_us"] = json::Value(bundle.window_start_us);
  json::Object notes;
  for (const auto& [key, value] : bundle.notes) {
    notes[key] = json::Value(value);
  }
  meta["notes"] = json::Value(std::move(notes));
  json::Object root;
  root["flight"] = json::Value(std::move(meta));
  root["rollup"] = bundle.metrics;
  std::ofstream metrics(stem + ".metrics.json", std::ios::trunc);
  if (!metrics) return false;
  metrics << json::Value(std::move(root)).dump(2);
  return static_cast<bool>(metrics);
}

}  // namespace everest::obs
