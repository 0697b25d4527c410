// Event model of the streaming layer (ROADMAP: "continuous ingestion +
// incremental analytics as a first-class workload"). The three paper use
// cases are naturally unbounded: weather ensembles arrive per cycle,
// air-quality sensors report continuously, floating-car data streams in.
// An Event is one timestamped reading on a named topic; a WindowOutput is
// one incremental analytic over a closed event-time window.
//
// Event time is integer microseconds so window arithmetic is exact and
// replays are bit-reproducible; values are doubles (µg/m³, km/h, MW).
// WindowOutput has a canonical byte encoding so "byte-identical window
// outputs across a crash/failover replay" is a checkable equality, not a
// fuzzy comparison.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serve/request.hpp"

namespace everest::stream {

/// One timestamped reading on a topic. `key` partitions the topic
/// (receptor index, road-segment index, wind-farm id); windows fold
/// per (topic, key).
struct Event {
  std::string topic;
  std::uint64_t key = 0;
  /// Event time (µs on the stream's own timeline, not the wall clock).
  std::uint64_t event_time_us = 0;
  double value = 0.0;
  /// Per-event randomness root (operators that sample derive from it).
  std::uint64_t seed = 0;
  /// Admission lane: latency-critical events jump the ingest queue.
  serve::SlaClass sla = serve::SlaClass::kThroughput;
  /// Punctuation advances the topic frontier to event_time_us without
  /// carrying a reading (a heartbeat/watermark message). Folded by no
  /// operator; closes windows the frontier passed.
  bool punctuation = false;
};

/// One incremental analytic emitted when an event-time window closed.
struct WindowOutput {
  std::string topic;
  std::string op;  ///< emitting operator (a topic may feed several)
  std::uint64_t key = 0;
  std::uint64_t window_start_us = 0;
  std::uint64_t window_end_us = 0;  ///< exclusive
  std::uint64_t events = 0;         ///< readings folded into this window
  double value = 0.0;

  /// Appends the canonical byte encoding (length-prefixed strings,
  /// little-endian integers, IEEE-754 bit patterns) — the unit of the
  /// byte-identity checks.
  void encode(std::string& out) const;

  friend bool operator==(const WindowOutput& a, const WindowOutput& b);
};

/// FNV-1a over the concatenated canonical encodings — a cheap equality
/// token for "same outputs, same order" across runs and replays.
[[nodiscard]] std::uint64_t fingerprint(const std::vector<WindowOutput>& outputs);

}  // namespace everest::stream
