#pragma once

// Process-wide registry of named instruments. Lookup (name + label set)
// is mutex-protected and intended for setup paths; the returned
// instrument pointers are stable for the registry's lifetime, so hot
// paths cache them once and then touch only the lock-free instruments.
//
// Cross-node merge semantics (the federation rollup contract):
//   * counters    — SUM. Every counter is a monotone event count; the
//     federation total is the sum of node totals.
//   * histograms  — element-wise bucket SUM (HistogramSnapshot::merge);
//     identical layouts are required, mismatches refuse to merge.
//   * gauges      — depend on what the gauge means, declared at
//     registration via GaugeKind:
//       - kSum       totals that partition across nodes (resident bytes,
//                    in-flight work): federation value = sum.
//       - kMax       watermarks (max queue depth seen, last detection
//                    time): federation value = max.
//       - kLastWrite node-local instantaneous/config values (imbalance
//                    ratios, "moved last rebuild") where neither sum nor
//                    max means anything. These are EXCLUDED from merged
//                    snapshots — silently summing them is exactly the
//                    double-count bug the rollup layer must make
//                    impossible (regression-tested in test_obs).
//     The first registration's kind wins, like histogram options.

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "obs/instruments.hpp"

namespace everest::obs {

/// Label set attached to an instrument name, e.g. {{"class","lc"}}.
/// Labels are sorted by key when forming the registry key, so insertion
/// order does not matter.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// How a gauge aggregates across nodes (see the merge contract above).
enum class GaugeKind : std::uint8_t { kLastWrite = 0, kSum = 1, kMax = 2 };

std::string_view to_string(GaugeKind kind);

/// Point-in-time copy of a whole registry, taggable with a sample time —
/// the unit the time-series ring stores and the federation rollup merges.
struct RegistrySnapshot {
  double at_us = 0.0;       ///< sample timestamp (caller's clock)
  std::uint64_t nodes = 1;  ///< node snapshots merged into this one

  struct GaugeSample {
    double value = 0.0;
    GaugeKind kind = GaugeKind::kLastWrite;
  };

  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, GaugeSample> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  /// Registered series in this snapshot (counters + gauges + histograms).
  [[nodiscard]] std::size_t series() const {
    return counters.size() + gauges.size() + histograms.size();
  }

  /// Cross-node accumulate per the contract in the header comment:
  /// counters/histograms sum, kSum gauges sum, kMax gauges max, and
  /// kLastWrite gauges are REMOVED from the merged result (both sides).
  /// at_us becomes the max of the two sample times (the merged snapshot
  /// is "as of" the freshest constituent). Histogram layout mismatches
  /// skip that series rather than corrupting it.
  void merge(const RegistrySnapshot& other);
};

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Find-or-create. Repeated calls with the same name + labels return
  /// the same instrument. For histograms the first registration's
  /// options win; for gauges the first registration's kind wins.
  Counter* counter(const std::string& name, const Labels& labels = {});
  Gauge* gauge(const std::string& name, const Labels& labels = {});
  Gauge* gauge(const std::string& name, GaugeKind kind,
               const Labels& labels = {});
  Histogram* histogram(const std::string& name, HistogramOptions options = {},
                       const Labels& labels = {});

  /// Zero every registered instrument (pointers stay valid).
  void reset();

  /// Consistent point-in-time copy of every instrument, stamped with
  /// `at_us` on the caller's clock. The unit of time-series sampling.
  [[nodiscard]] RegistrySnapshot snapshot(double at_us = 0.0) const;

  /// Structured dump: {"counters":{key:n}, "gauges":{key:x},
  /// "histograms":{key:{count,sum,mean,p50,p99,p999,max}}}.
  [[nodiscard]] json::Value to_json() const;
  /// Flat one-instrument-per-line dump: `key value`.
  [[nodiscard]] std::string to_text() const;

  /// Canonical instrument key: `name{k1=v1,k2=v2}` with sorted labels,
  /// or plain `name` when the label set is empty.
  static std::string key_of(const std::string& name, const Labels& labels);

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, GaugeKind> gauge_kinds_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace everest::obs
