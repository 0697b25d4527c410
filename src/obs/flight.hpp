#pragma once

// FlightRecorder: a black box for the data plane. The tracer's
// per-thread rings already hold the last N spans per thread — the
// recorder turns that rolling tail plus the TimeSeriesStore's recent
// rollups into a Perfetto-loadable bundle the moment something goes
// wrong (fault injection, breaker open, SLO page). The point is
// capturing the window you can never reproduce: the seconds *before*
// the trigger.
//
// Bundles are kept in a bounded in-memory ring and optionally dumped to
// disk as <stem>.trace.json (chrome trace events, Perfetto-loadable)
// plus <stem>.metrics.json (rollup over the retention window). Triggers
// are debounced: a storm of breaker opens produces one bundle per
// min_retrigger_gap, with suppressions counted (obs.flight.suppressed).

#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "obs/tsdb.hpp"

namespace everest::obs {

struct FlightRecorderConfig {
  /// How far back the bundle reaches (spans ending inside
  /// [trigger - retention, trigger] are captured).
  double retention_us = 5'000'000.0;
  /// Minimum wall-clock gap between accepted triggers; triggers inside
  /// the gap are suppressed (counted, no bundle).
  double min_retrigger_gap_us = 1'000'000.0;
  /// In-memory bundle ring depth; oldest bundles evict first.
  std::size_t max_bundles = 8;
  /// When non-empty, every accepted trigger also dumps to this
  /// directory as flight-<seq>-<reason> stems.
  std::string dump_dir;
};

/// One captured incident window.
struct FlightBundle {
  std::uint64_t seq = 0;       ///< monotone per recorder
  std::string reason;          ///< "fault.crash", "breaker.open", "slo.page"
  double triggered_at_us = 0;  ///< tracer wall clock
  double window_start_us = 0;  ///< triggered_at - retention (clamped at 0)
  Annotations notes;           ///< trigger-specific context (node, key, ...)
  std::vector<TraceEvent> events;
  json::Value metrics{json::Object{}};

  /// Chrome trace-event JSON of the captured spans (Perfetto-loadable).
  [[nodiscard]] std::string trace_json(int indent = -1) const;
  /// True when [window_start_us, triggered_at_us] covers `at_us`.
  [[nodiscard]] bool covers_us(double at_us) const {
    return at_us >= window_start_us && at_us <= triggered_at_us;
  }
};

/// Thread-safe. trigger() is cheap enough to call from fault hooks and
/// breaker callbacks: one collect_tail over the tracer rings plus one
/// rollup; suppressed triggers cost a clock read and a counter bump.
class FlightRecorder {
 public:
  /// `tracer` is required and borrowed. `tsdb` (may be null) supplies
  /// the metrics half of each bundle. `registry` (may be null) receives
  /// obs.flight.triggers / obs.flight.suppressed counters.
  FlightRecorder(const Tracer* tracer, const TimeSeriesStore* tsdb,
                 FlightRecorderConfig config = {},
                 Registry* registry = nullptr);

  /// Captures a bundle unless debounced. Returns the accepted bundle's
  /// seq, or nullopt when suppressed.
  std::optional<std::uint64_t> trigger(const std::string& reason,
                                       Annotations notes = {});

  /// Newest-first access; nullopt when `index` is past the oldest bundle.
  [[nodiscard]] std::optional<FlightBundle> bundle(std::size_t index = 0) const;
  [[nodiscard]] std::uint64_t triggers() const;
  [[nodiscard]] std::uint64_t suppressed() const;

  /// Writes <stem>.trace.json + <stem>.metrics.json; returns false on
  /// I/O failure (never throws — the recorder must not take down the
  /// thing it is recording).
  static bool dump(const FlightBundle& bundle, const std::string& stem);

 private:
  const Tracer* tracer_;
  const TimeSeriesStore* tsdb_;
  FlightRecorderConfig config_;
  Counter* triggers_ = nullptr;
  Counter* suppressed_ = nullptr;

  mutable std::mutex mu_;
  std::deque<FlightBundle> bundles_;
  std::uint64_t next_seq_ = 1;
  double last_trigger_us_ = -1.0;
  std::uint64_t trigger_count_ = 0;
  std::uint64_t suppressed_count_ = 0;
};

}  // namespace everest::obs
