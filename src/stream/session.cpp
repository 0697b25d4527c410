#include "stream/session.hpp"

namespace everest::stream {

StreamSession::StreamSession(std::uint64_t id, std::string tenant,
                             std::string topic, SessionConfig config,
                             obs::Registry* registry)
    : id_(id),
      tenant_(std::move(tenant)),
      topic_(std::move(topic)),
      config_(config) {
  if (registry != nullptr) {
    dropped_counter_ = registry->counter("stream.session.dropped",
                                         {{"tenant", tenant_}});
  }
}

void StreamSession::push(Delivery delivery) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return;
    if (delivery.output.window_end_us <= acked_) {
      // Replay duplicate: the client already durably consumed this
      // window before the failover.
      ++stats_.suppressed;
      return;
    }
    if (queue_.size() >= config_.queue_capacity) {
      queue_.pop_front();  // drop-oldest: freshest outputs win
      ++stats_.dropped;
      if (dropped_counter_ != nullptr) dropped_counter_->inc();
    }
    queue_.push_back(std::move(delivery));
  }
  cv_.notify_one();
}

std::optional<Delivery> StreamSession::poll(std::chrono::microseconds timeout) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait_for(lock, timeout, [&] { return !queue_.empty() || closed_; });
  if (queue_.empty()) return std::nullopt;
  Delivery delivery = std::move(queue_.front());
  queue_.pop_front();
  ++stats_.delivered;
  return delivery;
}

std::vector<Delivery> StreamSession::drain() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Delivery> out;
  out.reserve(queue_.size());
  while (!queue_.empty()) {
    out.push_back(std::move(queue_.front()));
    queue_.pop_front();
    ++stats_.delivered;
  }
  return out;
}

void StreamSession::ack(std::uint64_t watermark_us) {
  std::lock_guard<std::mutex> lock(mu_);
  if (watermark_us > acked_) acked_ = watermark_us;
}

std::uint64_t StreamSession::acked_watermark_us() const {
  std::lock_guard<std::mutex> lock(mu_);
  return acked_;
}

void StreamSession::close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  cv_.notify_all();
}

std::size_t StreamSession::queued() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

SessionStats StreamSession::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace everest::stream
