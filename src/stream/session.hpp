// Long-lived subscriptions alongside serve::Server::submit. A
// StreamSession is the server-side endpoint of one subscriber: window
// outputs are pushed into a bounded per-session queue the client drains
// at its own pace (poll or callback). When the client falls behind, the
// oldest undelivered outputs are dropped — freshest-first delivery, the
// right policy for monitoring dashboards — and every drop is counted
// (`stream.session.dropped`), never silent.
//
// Sessions also carry the failover-replay dedup: the client acks the
// watermark it has durably consumed, and the session suppresses any
// re-delivered output with window_end <= acked. After a crash the engine
// replays the WAL from before the acked horizon, re-emits some already
// -seen windows, and the session filters them — so the client-visible
// sequence is byte-identical to an uninterrupted run.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "serve/request.hpp"
#include "stream/event.hpp"

namespace everest::stream {

/// One window output delivered to a subscriber.
struct Delivery {
  WindowOutput output;
  /// Topic frontier (µs) when the output was queued — staleness at the
  /// consumer is frontier − window_start.
  std::uint64_t frontier_us = 0;
  /// Propagated trace identity: valid when the engine traced this
  /// delivery (parented under its "deliver" span), so a consumer's
  /// downstream spans stitch into the same chain.
  obs::TraceContext trace;
};

struct SessionConfig {
  /// Bounded per-session output queue; beyond it the oldest undelivered
  /// deliveries are dropped (and counted).
  std::size_t queue_capacity = 1024;
  serve::SlaClass sla = serve::SlaClass::kThroughput;
};

struct SessionStats {
  std::uint64_t delivered = 0;  ///< handed to the client via poll()
  std::uint64_t dropped = 0;    ///< overwritten before the client drained
  std::uint64_t suppressed = 0; ///< replay duplicates filtered by ack
};

/// Server-side endpoint of one subscription. Thread-safe: the engine
/// pump pushes, the client thread polls/acks.
class StreamSession {
 public:
  StreamSession(std::uint64_t id, std::string tenant, std::string topic,
                SessionConfig config, obs::Registry* registry);

  [[nodiscard]] std::uint64_t id() const { return id_; }
  [[nodiscard]] const std::string& tenant() const { return tenant_; }
  [[nodiscard]] const std::string& topic() const { return topic_; }
  [[nodiscard]] serve::SlaClass sla() const { return config_.sla; }

  /// Engine-side: queue one output. Drops the oldest undelivered entry
  /// when full; suppresses replay duplicates (window_end <= acked).
  void push(Delivery delivery);

  /// Client-side: next delivery, blocking up to `timeout`. nullopt on
  /// timeout or after close() drained the queue.
  std::optional<Delivery> poll(std::chrono::microseconds timeout);

  /// Client-side: drain everything currently queued without blocking.
  std::vector<Delivery> drain();

  /// Client-side: mark everything with window_end <= `watermark_us` as
  /// durably consumed. Monotonic; a lower ack is ignored.
  void ack(std::uint64_t watermark_us);
  [[nodiscard]] std::uint64_t acked_watermark_us() const;

  /// Engine-side on shutdown: wakes blocked pollers; queued deliveries
  /// stay drainable.
  void close();

  [[nodiscard]] std::size_t queued() const;
  [[nodiscard]] SessionStats stats() const;

 private:
  const std::uint64_t id_;
  const std::string tenant_;
  const std::string topic_;
  const SessionConfig config_;
  obs::Counter* dropped_counter_ = nullptr;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Delivery> queue_;
  std::uint64_t acked_ = 0;
  bool closed_ = false;
  SessionStats stats_;
};

}  // namespace everest::stream
