// Continuous event admission through the same two-lane bounded queue
// that fronts request serving (serve::TwoLaneQueue): latency-critical
// events jump the lane, a full queue rejects with RESOURCE_EXHAUSTED
// instead of buffering unboundedly — backpressure is the producer's
// problem, by design.
//
// Admitted events are also appended to a write-ahead log
// (storage::CatalogLog reused as an event journal) BEFORE becoming
// visible to the consumer, so a crashed stream node can be replayed in
// exact admission order: WAL order == fold order == the determinism
// contract of the window operators. Punctuation travels through the
// same log (kSeal frames), so replay reproduces watermark advancement
// too.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "obs/registry.hpp"
#include "serve/request_queue.hpp"
#include "storage/env.hpp"
#include "storage/log.hpp"
#include "stream/event.hpp"

namespace everest::stream {

struct IngestorConfig {
  /// Bounded admission queue shared by both lanes.
  std::size_t queue_capacity = 4096;
  /// WAL directory; empty = in-memory only (no crash replay).
  std::string wal_dir;
  storage::LogConfig wal;
};

struct IngestStats {
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t punctuations = 0;
};

/// Event front door of one stream node. Thread-safe producers; the
/// engine pump is the single consumer.
class Ingestor {
 public:
  explicit Ingestor(IngestorConfig config, obs::Registry* registry = nullptr,
                    storage::Env* env = nullptr);

  /// Maps a topic to the compact id used in WAL frames. Ids are assigned
  /// in first-seen order; replay needs the same topic list in the same
  /// order (StreamEngine registers operators deterministically).
  std::uint32_t topic_id(const std::string& topic);

  /// Admission: queue (lane by `event.sla`) then WAL-append, under one
  /// lock. Rejects with RESOURCE_EXHAUSTED when the queue is full
  /// (nothing is logged for a rejected event), FAILED_PRECONDITION after
  /// close().
  Status offer(Event event);

  /// Consumer side, batch at a time: appends every queued event to `out`
  /// under one lock, priority lane first and oldest first within a lane.
  /// Blocks until an event arrives, close(), or wake(); returns the
  /// number appended.
  std::size_t take_all(std::vector<Event>* out);

  /// Ends the consumer's blocked take_all() (or its next one) without
  /// closing admission: the engine's stop path.
  void wake();

  void close();
  [[nodiscard]] std::size_t pending() const;
  [[nodiscard]] IngestStats stats() const;
  [[nodiscard]] bool wal_enabled() const { return wal_ != nullptr; }
  /// Forces the WAL's group commit (tests / graceful shutdown).
  Status sync_wal();

  /// Streams every event in `dir`'s WAL in admission order. `topics`
  /// maps WAL topic ids back to names (index = id; events whose id is
  /// out of range are dropped). Returns events delivered.
  static std::uint64_t replay(
      const std::string& dir, const std::vector<std::string>& topics,
      const std::function<void(const Event&)>& fn,
      storage::Env* env = nullptr);

 private:
  std::uint32_t topic_id_locked(const std::string& topic);

  IngestorConfig config_;
  serve::TwoLaneQueue<Event> queue_;
  std::unique_ptr<storage::CatalogLog> wal_;

  /// The admission lock: topic ids, queue push + WAL append (so queue
  /// order == WAL order) and the stats, in one critical section.
  mutable std::mutex mu_;
  std::vector<std::string> topics_;  ///< index = topic id
  IngestStats stats_;

  obs::Counter* ctr_admitted_ = nullptr;
  obs::Counter* ctr_rejected_ = nullptr;
};

}  // namespace everest::stream
