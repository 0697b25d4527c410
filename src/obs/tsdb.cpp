#include "obs/tsdb.hpp"

#include <algorithm>

namespace everest::obs {
namespace {

/// Monotone-counter delta between consecutive samples: a drop means the
/// source restarted, so the later sample IS the post-reset increase.
std::uint64_t reset_aware_delta(std::uint64_t older, std::uint64_t newer) {
  return newer >= older ? newer - older : newer;
}

/// Delta histogram between two snapshots of the same (monotone-growing)
/// histogram, reset-aware per bucket. Layout mismatch or a reset yields
/// the newer snapshot verbatim (post-reset contents).
HistogramSnapshot delta_histogram(const HistogramSnapshot& older,
                                  const HistogramSnapshot& newer) {
  if (!(older.options == newer.options) ||
      older.counts.size() != newer.counts.size() ||
      newer.count < older.count) {
    return newer;
  }
  HistogramSnapshot delta = newer;
  delta.count = newer.count - older.count;
  delta.sum = newer.sum - older.sum;
  for (std::size_t i = 0; i < delta.counts.size(); ++i) {
    delta.counts[i] =
        newer.counts[i] >= older.counts[i] ? newer.counts[i] - older.counts[i]
                                           : newer.counts[i];
  }
  // min/max watermarks are lifetime, not windowed; keep the newer ones
  // as the best available bound (documented approximation).
  return delta;
}

}  // namespace

TimeSeriesStore::TimeSeriesStore(const Registry* registry,
                                 TimeSeriesConfig config, const Tracer* tracer)
    : registry_(registry), config_(config), tracer_(tracer) {
  if (config_.capacity < 2) config_.capacity = 2;
}

void TimeSeriesStore::sample(double at_us) {
  RegistrySnapshot snap = registry_->snapshot(at_us);
  // Self-telemetry: telemetry loss and cardinality are series too. The
  // drop counter is always present (0 without a tracer) so "zero drops"
  // is an asserted fact, never an absent series.
  snap.counters["obs.trace.dropped"] =
      tracer_ != nullptr ? tracer_->dropped() : 0;
  snap.gauges["obs.registry.series"] = RegistrySnapshot::GaugeSample{
      static_cast<double>(snap.series()), GaugeKind::kMax};
  append(std::move(snap));
}

void TimeSeriesStore::append(RegistrySnapshot snapshot) {
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.size() >= config_.capacity) ring_.pop_front();
  ring_.push_back(std::move(snapshot));
}

std::size_t TimeSeriesStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.size();
}

std::optional<RegistrySnapshot> TimeSeriesStore::latest() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.empty()) return std::nullopt;
  return ring_.back();
}

std::optional<RegistrySnapshot> TimeSeriesStore::at_or_before(
    double at_us) const {
  std::lock_guard<std::mutex> lock(mu_);
  const RegistrySnapshot* best = nullptr;
  for (const RegistrySnapshot& snap : ring_) {
    if (snap.at_us <= at_us) best = &snap;
  }
  if (best == nullptr) return std::nullopt;
  return *best;
}

std::vector<const RegistrySnapshot*> TimeSeriesStore::window_locked(
    double window_us) const {
  // Caller holds mu_.
  std::vector<const RegistrySnapshot*> out;
  if (ring_.empty()) return out;
  const double start = ring_.back().at_us - window_us;
  for (const RegistrySnapshot& snap : ring_) {
    if (snap.at_us >= start) out.push_back(&snap);
  }
  return out;
}

double TimeSeriesStore::counter_delta(const std::string& key,
                                      double window_us) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto window = window_locked(window_us);
  if (window.size() < 2) return 0.0;
  std::uint64_t total = 0;
  for (std::size_t i = 1; i < window.size(); ++i) {
    const auto older = window[i - 1]->counters.find(key);
    const auto newer = window[i]->counters.find(key);
    if (newer == window[i]->counters.end()) continue;
    const std::uint64_t before =
        older == window[i - 1]->counters.end() ? 0 : older->second;
    total += reset_aware_delta(before, newer->second);
  }
  return static_cast<double>(total);
}

double TimeSeriesStore::rate_per_s(const std::string& key,
                                   double window_us) const {
  double covered_us = 0.0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto window = window_locked(window_us);
    if (window.size() < 2) return 0.0;
    covered_us = window.back()->at_us - window.front()->at_us;
  }
  if (covered_us <= 0.0) return 0.0;
  return counter_delta(key, window_us) / (covered_us / 1e6);
}

std::optional<HistogramSnapshot> TimeSeriesStore::window_histogram(
    const std::string& key, double window_us) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto window = window_locked(window_us);
  if (window.empty()) return std::nullopt;
  const auto newest = window.back()->histograms.find(key);
  if (newest == window.back()->histograms.end()) return std::nullopt;
  const auto oldest = window.front()->histograms.find(key);
  if (window.size() < 2 || oldest == window.front()->histograms.end()) {
    return newest->second;  // whole lifetime is inside the window
  }
  return delta_histogram(oldest->second, newest->second);
}

std::optional<double> TimeSeriesStore::percentile(const std::string& key,
                                                  double p,
                                                  double window_us) const {
  const auto hist = window_histogram(key, window_us);
  if (!hist.has_value() || hist->count == 0) return std::nullopt;
  return hist->percentile(p);
}

json::Value TimeSeriesStore::rollup_json(double window_us) const {
  RegistrySnapshot newest;
  std::vector<std::string> hist_keys;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (ring_.empty()) return json::Value(json::Object{});
    newest = ring_.back();
  }
  json::Object counters;
  for (const auto& [key, value] : newest.counters) {
    json::Object entry;
    entry["total"] = json::Value(static_cast<std::size_t>(value));
    entry["delta"] = json::Value(counter_delta(key, window_us));
    entry["rate_per_s"] = json::Value(rate_per_s(key, window_us));
    counters[key] = json::Value(std::move(entry));
  }
  json::Object gauges;
  for (const auto& [key, sample] : newest.gauges) {
    json::Object entry;
    entry["value"] = json::Value(sample.value);
    entry["kind"] = json::Value(std::string(to_string(sample.kind)));
    gauges[key] = json::Value(std::move(entry));
  }
  json::Object histograms;
  for (const auto& [key, unused] : newest.histograms) {
    (void)unused;
    const auto hist = window_histogram(key, window_us);
    if (!hist.has_value()) continue;
    json::Object entry;
    entry["count"] = json::Value(static_cast<std::size_t>(hist->count));
    entry["mean"] = json::Value(hist->mean());
    entry["p50"] = json::Value(hist->percentile(50.0));
    entry["p99"] = json::Value(hist->percentile(99.0));
    histograms[key] = json::Value(std::move(entry));
  }
  json::Object root;
  root["window_us"] = json::Value(window_us);
  root["at_us"] = json::Value(newest.at_us);
  root["counters"] = json::Value(std::move(counters));
  root["gauges"] = json::Value(std::move(gauges));
  root["histograms"] = json::Value(std::move(histograms));
  return json::Value(std::move(root));
}

std::optional<RegistrySnapshot> TimeSeriesStore::merged(
    const std::vector<const TimeSeriesStore*>& nodes, double at_us) {
  std::optional<RegistrySnapshot> out;
  for (const TimeSeriesStore* node : nodes) {
    if (node == nullptr) continue;
    std::optional<RegistrySnapshot> snap =
        at_us < 0.0 ? node->latest() : node->at_or_before(at_us);
    if (!snap.has_value()) continue;
    if (!out.has_value()) {
      out = std::move(snap);
      // A single-node "merge" must obey the same contract as a real one:
      // node-local gauges never escape into a federation rollup.
      RegistrySnapshot empty;
      empty.nodes = 0;
      out->merge(empty);
    } else {
      out->merge(*snap);
    }
  }
  return out;
}

std::optional<double> TimeSeriesStore::merged_percentile(
    const std::vector<const TimeSeriesStore*>& nodes, const std::string& key,
    double p, double window_us) {
  std::optional<HistogramSnapshot> merged;
  for (const TimeSeriesStore* node : nodes) {
    if (node == nullptr) continue;
    const auto hist = node->window_histogram(key, window_us);
    if (!hist.has_value()) continue;
    if (!merged.has_value()) {
      merged = *hist;
    } else {
      (void)merged->merge(*hist);
    }
  }
  if (!merged.has_value() || merged->count == 0) return std::nullopt;
  return merged->percentile(p);
}

}  // namespace everest::obs
