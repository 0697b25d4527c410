#pragma once

// TimeSeriesStore: a fixed-capacity ring of registry snapshots sampled
// at a fixed cadence, per node. It turns the registry's instantaneous
// totals into queryable time series: "requests/s over the last second",
// "p99 over the last 10 s on node 3" become facts computed from sample
// deltas rather than bench artifacts.
//
//   * Counters roll up reset-aware: a sample that went DOWN means the
//     process restarted (counters are monotone), so the delta restarts
//     from the new value instead of going negative.
//   * Histograms roll up as windowed deltas: subtracting the bucket
//     vector at the window start from the one at the window end yields
//     the distribution of ONLY the window's events; percentiles on that
//     delta are true windowed percentiles.
//   * Gauges answer with their latest sample (they are instantaneous).
//   * Cross-node merge aligns each node's ring on the query time (the
//     latest sample at or before it — tolerant of clock skew between
//     nodes' sampling loops) and merges snapshots per the GaugeKind
//     contract in registry.hpp.
//
// sample() additionally injects two synthetic self-telemetry series so
// telemetry loss is itself observable (asserted zero in the E25 smoke):
//   obs.trace.dropped   — tracer ring-buffer drops so far (counter)
//   obs.registry.series — registry cardinality (gauge, kMax)

#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace everest::obs {

struct TimeSeriesConfig {
  /// Advisory sampling cadence (the owner's sampling loop honours it;
  /// queries only use the timestamps actually recorded).
  double interval_us = 100'000.0;
  /// Ring depth: the store never holds more than this many samples, so
  /// memory is bounded at capacity × registry size regardless of uptime.
  std::size_t capacity = 256;
};

/// Per-node snapshot ring + rollup queries. Thread-safe: a sampler
/// thread appends while control loops query.
class TimeSeriesStore {
 public:
  /// `registry` is borrowed and must outlive the store. `tracer` (may be
  /// null) is the source of the obs.trace.dropped self-telemetry series.
  explicit TimeSeriesStore(const Registry* registry,
                           TimeSeriesConfig config = {},
                           const Tracer* tracer = nullptr);

  /// Snapshots the registry at `at_us` and appends to the ring (evicting
  /// the oldest sample past capacity).
  void sample(double at_us);

  /// Appends a pre-built snapshot — the allocation-light path the
  /// <100 ns/append bench_micro budget covers (ring bookkeeping only;
  /// building the snapshot is the caller's cost).
  void append(RegistrySnapshot snapshot);

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t capacity() const { return config_.capacity; }
  [[nodiscard]] double interval_us() const { return config_.interval_us; }

  [[nodiscard]] std::optional<RegistrySnapshot> latest() const;
  /// Latest sample with at_us <= `at_us` (clock-skew-tolerant alignment
  /// point for cross-node queries); nullopt when the ring is empty or
  /// everything is newer.
  [[nodiscard]] std::optional<RegistrySnapshot> at_or_before(
      double at_us) const;

  // ---- windowed rollups (window ends at the newest sample) ----
  /// Reset-aware counter increase over the trailing `window_us`. 0 when
  /// fewer than 2 samples cover the window.
  [[nodiscard]] double counter_delta(const std::string& key,
                                     double window_us) const;
  /// counter_delta scaled to events per second of *covered* time.
  [[nodiscard]] double rate_per_s(const std::string& key,
                                  double window_us) const;
  /// Percentile of ONLY the window's recordings (delta histogram between
  /// the window edges, reset-aware). nullopt when the series is missing
  /// or the window saw no events.
  [[nodiscard]] std::optional<double> percentile(const std::string& key,
                                                 double p,
                                                 double window_us) const;
  /// The windowed delta histogram itself (for callers that want more
  /// than one statistic from it).
  [[nodiscard]] std::optional<HistogramSnapshot> window_histogram(
      const std::string& key, double window_us) const;

  /// One JSON document of every series rolled up over the trailing
  /// window: counter deltas + rates, latest gauges, histogram
  /// count/mean/p50/p99 — the metrics half of a flight-recorder bundle.
  [[nodiscard]] json::Value rollup_json(double window_us) const;

  // ---- cross-node ----
  /// Merges each store's sample at-or-before `at_us` (its latest when
  /// at_us < 0) per the GaugeKind contract. Empty stores are skipped;
  /// nullopt when every store is empty.
  static std::optional<RegistrySnapshot> merged(
      const std::vector<const TimeSeriesStore*>& nodes, double at_us = -1.0);
  /// Federation-wide windowed percentile: merges every node's windowed
  /// delta histogram for `key`, then reads the percentile off the merged
  /// buckets. nullopt when no node saw events in the window.
  static std::optional<double> merged_percentile(
      const std::vector<const TimeSeriesStore*>& nodes, const std::string& key,
      double p, double window_us);

 private:
  /// Reset-aware pairwise accumulation over samples in
  /// [newest.at_us - window_us, newest.at_us].
  [[nodiscard]] std::vector<const RegistrySnapshot*> window_locked(
      double window_us) const;

  const Registry* registry_;
  TimeSeriesConfig config_;
  const Tracer* tracer_;

  mutable std::mutex mu_;
  std::deque<RegistrySnapshot> ring_;
};

}  // namespace everest::obs
