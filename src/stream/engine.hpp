// The stream engine of one node: ties the ingestor (bounded two-lane
// admission + WAL), the windowed operators, and the subscriber sessions
// into a single pump loop.
//
//   producers ──offer──▶ Ingestor ──take_all──▶ pump ──▶ Operator::offer
//                                                │            │ advance
//                                                ▼            ▼
//                                         topic frontier   WindowOutputs
//                                                │            │
//                                                └─staleness──▶ sessions
//
// The pump is the only thread touching operators, so operator code needs
// no locks and folding is strictly admission-ordered — the determinism
// contract. It works a batch at a time: one take_all() moves everything
// queued out under one lock, the batch folds in order, and progress
// (events consumed, EngineStats) is published once per batch, which is
// also when a blocked flush() is woken. Between batches the pump blocks
// until a push arrives or stop()/kill() wakes it. Watermarks are bounded
// out-of-orderness: per topic the frontier is the max event time
// admitted, and each operator's watermark advances to frontier − its
// allowed lateness.
//
// Failover path (driven by StreamFabric): stop() the dead engine's
// clients, construct a fresh engine over the same WAL dir on the new
// primary, re-register the same operators in the same order,
// replay_wal(), then attach() the surviving sessions — their acked
// watermarks suppress re-emitted windows, so subscribers see a
// byte-identical continuation.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "storage/env.hpp"
#include "stream/ingestor.hpp"
#include "stream/session.hpp"
#include "stream/window.hpp"

namespace everest::stream {

struct EngineConfig {
  IngestorConfig ingest;
  /// Subscription admission bound: subscribe() rejects with
  /// RESOURCE_EXHAUSTED beyond this.
  std::size_t max_sessions = 64;
  /// Span sink (borrowed; may be null). When enabled, each delivery
  /// fan-out gets a "deliver" span and every Delivery carries a
  /// TraceContext parented under it, so consumer-side work stitches
  /// into the engine's chain.
  obs::Tracer* tracer = nullptr;
};

struct EngineStats {
  std::uint64_t events_processed = 0;
  std::uint64_t outputs_emitted = 0;
  std::uint64_t deliveries = 0;
};

/// One node's streaming runtime. Thread-safe facade; operators are
/// pump-thread-only.
class StreamEngine {
 public:
  explicit StreamEngine(EngineConfig config, obs::Registry* registry = nullptr,
                        storage::Env* env = nullptr);
  ~StreamEngine();

  StreamEngine(const StreamEngine&) = delete;
  StreamEngine& operator=(const StreamEngine&) = delete;

  /// Registers an operator. Must happen before start()/replay_wal();
  /// registration order fixes the WAL topic ids, so a failover
  /// replacement must register the same operators in the same order.
  Status add_operator(std::unique_ptr<Operator> op);

  /// Producer-facing admission (thread-safe, never blocks): WAL-append +
  /// two-lane queue; RESOURCE_EXHAUSTED when the queue is full.
  Status ingest(Event event);

  /// Opens a subscription on `topic` for `tenant`. RESOURCE_EXHAUSTED
  /// once `max_sessions` sessions are live; NOT_FOUND for a topic no
  /// operator consumes.
  Result<std::shared_ptr<StreamSession>> subscribe(const std::string& tenant,
                                                   const std::string& topic,
                                                   SessionConfig config = {});

  /// Re-attaches an existing session (failover re-home). The session's
  /// acked watermark keeps suppressing already-delivered windows.
  Status attach(std::shared_ptr<StreamSession> session);

  /// Removes every session without closing them (their queues and ack
  /// state survive for attach() on another engine: failover re-home).
  std::vector<std::shared_ptr<StreamSession>> detach_all();

  /// Spawns the pump. Idempotent.
  void start();
  /// Drains the queue, stops the pump, closes every session.
  void stop();
  /// Fail-stop: halts the pump immediately — queued events are lost
  /// (the WAL has them), sessions stay open for re-attach elsewhere.
  void kill();
  [[nodiscard]] bool running() const { return running_.load(); }

  /// Blocks until every event admitted so far has been folded and
  /// delivered, or until the engine is stopped or killed: the events a
  /// kill() strands are never folded, so waiting for them would not end.
  void flush();

  /// Replays this engine's WAL through the registered operators in
  /// admission order (engine must not be running). Deliveries flow to
  /// attached sessions — replay duplicates are suppressed by acks.
  /// `acked_horizon_us` trims the replay: an event whose every
  /// containing window closed at or before the horizon (event time +
  /// the topic's max window span <= horizon) only contributes to
  /// already-acked windows, so it is skipped; windows the trim leaves
  /// partially rebuilt are exactly the acked ones the sessions suppress.
  /// Returns events folded.
  Result<std::uint64_t> replay_wal(std::uint64_t acked_horizon_us = 0);

  [[nodiscard]] EngineStats stats() const;
  [[nodiscard]] const Ingestor& ingestor() const { return ingestor_; }
  /// Registered topics in registration (WAL id) order.
  [[nodiscard]] std::vector<std::string> topics() const;

 private:
  /// Per-topic fold state. The map holding it is fixed once the engine
  /// runs (add_operator refuses then), so readers need no lock for it.
  struct TopicState {
    std::vector<std::size_t> operators;  ///< indices into operators_
    /// Max admitted event time (pump thread or stopped-engine replay).
    std::uint64_t frontier = 0;
  };

  void pump();
  /// Sets the stop flag and wakes the pump and every flush() waiter.
  void request_stop();
  /// Folds one event and triggers its topic's operators, tallying into
  /// `delta`. Pump thread or stopped-engine replay only.
  void process(const Event& event, EngineStats* delta);
  void deliver(const std::string& topic, std::uint64_t frontier,
               std::vector<WindowOutput>& outputs, EngineStats* delta);
  /// Adds `delta` to the stats and `consumed` to the consumed count in
  /// one step, then wakes flush() waiters.
  void publish(const EngineStats& delta, std::uint64_t consumed);

  EngineConfig config_;
  obs::Registry* registry_;
  storage::Env* env_;
  Ingestor ingestor_;

  /// Registration-ordered; WAL topic id = ingestor_.topic_id(topic).
  std::vector<std::unique_ptr<Operator>> operators_;
  std::vector<std::string> topics_;  ///< registration order
  std::map<std::string, TopicState> by_topic_;

  mutable std::mutex sessions_mu_;
  std::map<std::uint64_t, std::shared_ptr<StreamSession>> sessions_;
  std::uint64_t next_session_id_ = 1;

  std::thread pump_thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};

  /// Guards consumed_ and stats_; progress_cv_ is signalled after each
  /// published batch and on stop/kill.
  mutable std::mutex progress_mu_;
  std::condition_variable progress_cv_;
  /// Events the pump finished processing (pairs with the ingestor's
  /// admitted count; flush() waits for equality).
  std::uint64_t consumed_ = 0;
  EngineStats stats_;

  /// Frontier − min operator watermark after the last folded event
  /// (pump or replay thread); the gauge takes it once per batch.
  std::uint64_t watermark_lag_us_ = 0;

  obs::Counter* ctr_events_ = nullptr;
  obs::Counter* ctr_outputs_ = nullptr;
  obs::Gauge* gauge_watermark_lag_ = nullptr;
  obs::Histogram* hist_staleness_ = nullptr;
};

}  // namespace everest::stream
