#include "stream/ingestor.hpp"

namespace everest::stream {

namespace {

// WAL field mapping (CatalogLog reused as an event journal):
//   type    kPlace = reading, kSeal = punctuation
//   object  event key        shard  topic id
//   version event time (µs)  node   event seed
//   bytes   event value
storage::LogRecord encode_event(const Event& event, std::uint32_t topic_id) {
  storage::LogRecord record;
  record.type = event.punctuation ? storage::LogRecordType::kSeal
                                  : storage::LogRecordType::kPlace;
  record.object = event.key;
  record.shard = topic_id;
  record.version = event.event_time_us;
  record.node = event.seed;
  record.bytes = event.value;
  return record;
}

}  // namespace

Ingestor::Ingestor(IngestorConfig config, obs::Registry* registry,
                   storage::Env* env)
    : config_(std::move(config)), queue_(config_.queue_capacity) {
  if (!config_.wal_dir.empty()) {
    wal_ = std::make_unique<storage::CatalogLog>(config_.wal_dir, config_.wal,
                                                 registry, env);
  }
  if (registry != nullptr) {
    ctr_admitted_ = registry->counter("stream.ingest.admitted");
    ctr_rejected_ = registry->counter("stream.ingest.rejected");
  }
}

std::uint32_t Ingestor::topic_id(const std::string& topic) {
  std::lock_guard<std::mutex> lock(mu_);
  return topic_id_locked(topic);
}

std::uint32_t Ingestor::topic_id_locked(const std::string& topic) {
  for (std::size_t i = 0; i < topics_.size(); ++i) {
    if (topics_[i] == topic) return static_cast<std::uint32_t>(i);
  }
  topics_.push_back(topic);
  return static_cast<std::uint32_t>(topics_.size() - 1);
}

Status Ingestor::offer(Event event) {
  const int lane = event.sla == serve::SlaClass::kLatencyCritical ? 0 : 1;
  const bool punctuation = event.punctuation;
  // One critical section across producers: queue order must equal WAL
  // order (fold order == replay order is the determinism contract), and
  // the stats move with them.
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint32_t tid = topic_id_locked(event.topic);
  // Encoded before the event moves into the queue, so it is never copied.
  const storage::LogRecord record = encode_event(event, tid);
  // Admit-then-journal: a rejected event is never logged, so replay
  // reproduces exactly the admitted sequence.
  Status admitted =
      queue_.push(std::move(event), lane, "event on", topics_[tid]);
  if (!admitted.ok()) {
    ++stats_.rejected;
    if (ctr_rejected_ != nullptr) ctr_rejected_->inc();
    return admitted;
  }
  if (wal_ != nullptr) wal_->append(record);
  ++stats_.admitted;
  if (punctuation) ++stats_.punctuations;
  if (ctr_admitted_ != nullptr) ctr_admitted_->inc();
  return OkStatus();
}

std::size_t Ingestor::take_all(std::vector<Event>* out) {
  return queue_.pop_all(serve::Clock::time_point::max(), out);
}

void Ingestor::wake() { queue_.wake(); }

void Ingestor::close() {
  queue_.close();
  if (wal_ != nullptr) wal_->sync();
}

std::size_t Ingestor::pending() const { return queue_.size(); }

IngestStats Ingestor::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

Status Ingestor::sync_wal() {
  if (wal_ == nullptr) return OkStatus();
  return wal_->sync();
}

std::uint64_t Ingestor::replay(const std::string& dir,
                               const std::vector<std::string>& topics,
                               const std::function<void(const Event&)>& fn,
                               storage::Env* env) {
  std::uint64_t delivered = 0;
  storage::CatalogLog::replay_records(
      dir,
      [&](const storage::LogRecord& record) {
        if (record.type != storage::LogRecordType::kPlace &&
            record.type != storage::LogRecordType::kSeal) {
          return;
        }
        if (record.shard >= topics.size()) return;
        Event event;
        event.topic = topics[record.shard];
        event.key = record.object;
        event.event_time_us = record.version;
        event.seed = record.node;
        event.value = record.bytes;
        event.punctuation = record.type == storage::LogRecordType::kSeal;
        fn(event);
        ++delivered;
      },
      env);
  return delivered;
}

}  // namespace everest::stream
