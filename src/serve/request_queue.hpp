// Bounded admission queue: the service's front door. Two lanes (one per
// SLA class) behind one mutex; push is admission control — when the queue
// is at capacity the item is rejected immediately with
// RESOURCE_EXHAUSTED instead of building an unbounded backlog. That
// reject-don't-buffer policy is what keeps p99 latency bounded under
// overload (bench E17 measures exactly this).
//
// The policy is generic over the queued item: TwoLaneQueue<T> carries the
// lanes, the capacity bound, and the blocking consumer side, so the same
// admission path fronts both request serving (RequestQueue below) and
// continuous event ingestion (stream::Ingestor).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <iterator>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.hpp"
#include "serve/request.hpp"

namespace everest::serve {

/// Thread-safe bounded MPMC queue with two priority lanes (lane 0 is
/// always popped first). Producers never block: a full queue rejects.
///
/// Each lane is a vector with a consumed prefix [0, head): pop() advances
/// `head` and compacts once the popped prefix is the larger half. A bulk
/// drain into an empty vector swaps buffers instead of moving items, so
/// a consumer that clears and reuses its batch vector trades the same two
/// buffers back and forth with the producers — no allocation per item or
/// per batch once both have grown, and O(1) work under the lock.
template <typename T>
class TwoLaneQueue {
 public:
  explicit TwoLaneQueue(std::size_t capacity) : capacity_(capacity) {}

  /// Admission: enqueues into `lane` (0 = priority, 1 = bulk) or rejects
  /// with RESOURCE_EXHAUSTED when full, FAILED_PRECONDITION when closed.
  /// A rejection names the item as "<noun> '<name>'"; the message is
  /// built only then. `item` moves into the queue only once admitted, so
  /// `name` may view into it. Never blocks.
  template <typename U>
  Status push(U&& item, int lane, std::string_view noun,
              std::string_view name) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_) {
        return FailedPrecondition("queue is closed");
      }
      if (total_locked() >= capacity_) {
        std::string message = "queue full (" + std::to_string(capacity_) +
                              " pending), ";
        message.append(noun).append(" '").append(name).append("' rejected");
        return ResourceExhausted(std::move(message));
      }
      lanes_[lane == 0 ? 0 : 1].items.push_back(std::forward<U>(item));
    }
    cv_.notify_all();  // a pop_compatible() waiter may not want this item
    return OkStatus();
  }

  /// Pops the oldest item, priority lane first. Blocks until one arrives;
  /// nullopt once `deadline` passes or the queue is closed and drained.
  std::optional<T> pop(Clock::time_point deadline) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait_until(lock, deadline,
                   [this] { return closed_ || total_locked() > 0; });
    for (Lane& lane : lanes_) {
      if (lane.size() > 0) {
        T out = std::move(lane.items[lane.head++]);
        lane.compact();
        return out;
      }
    }
    return std::nullopt;
  }

  /// Moves every queued item to the back of `out` under one lock:
  /// priority lane first, FIFO within each lane — the order a run of
  /// pop() calls with no pushes in between would give. When `out` is
  /// empty and only the bulk lane holds items, the buffers are swapped
  /// instead. Blocks until an item arrives; returns the number moved,
  /// which is 0 once `deadline` passes, the queue is closed and drained,
  /// or wake() ended the wait.
  std::size_t pop_all(Clock::time_point deadline, std::vector<T>* out) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait_until(lock, deadline, [this] {
      return closed_ || woken_ || total_locked() > 0;
    });
    woken_ = false;
    const std::size_t n = total_locked();
    if (n == 0) return 0;
    Lane& bulk = lanes_[1];
    if (out->empty() && lanes_[0].size() == 0 && bulk.head == 0) {
      out->swap(bulk.items);  // hands back out's emptied buffer
      return n;
    }
    for (Lane& lane : lanes_) {
      out->insert(out->end(), std::make_move_iterator(lane.begin()),
                  std::make_move_iterator(lane.items.end()));
      lane.items.clear();
      lane.head = 0;
    }
    return n;
  }

  /// Ends the blocked pop_all() — or the next one to block — once,
  /// without closing the queue: a consumer's stop path uses it to end a
  /// wait that no push may end. Admission is unaffected.
  void wake() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      woken_ = true;
    }
    cv_.notify_all();
  }

  /// Items currently queued (both lanes).
  [[nodiscard]] std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return total_locked();
  }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// Stops admission; consumers drain what is left, then pop() returns
  /// nullopt immediately.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }
  [[nodiscard]] bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

 protected:
  /// FIFO lane: live items are items[head, size()); the prefix before
  /// `head` holds moved-from shells awaiting compaction.
  struct Lane {
    std::vector<T> items;
    std::size_t head = 0;

    [[nodiscard]] std::size_t size() const { return items.size() - head; }
    /// First live item.
    typename std::vector<T>::iterator begin() {
      return items.begin() + static_cast<std::ptrdiff_t>(head);
    }
    /// Drops the popped prefix once it is the larger half (all of it
    /// when the lane ran empty), keeping pop() amortized O(1).
    void compact() {
      if (head * 2 <= items.size()) return;
      items.erase(items.begin(),
                  items.begin() + static_cast<std::ptrdiff_t>(head));
      head = 0;
    }
  };

  [[nodiscard]] std::size_t total_locked() const {
    return lanes_[0].size() + lanes_[1].size();
  }

  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  Lane lanes_[2];
  bool closed_ = false;
  bool woken_ = false;  ///< a wake() no pop_all() has consumed yet
};

/// A request plus its completion callback, as held inside the server.
struct PendingRequest {
  Request request;
  ResponseCallback on_done;
};

/// The serving front door: TwoLaneQueue of pending requests with the
/// lanes keyed by SLA class (latency-critical jumps the queue) plus the
/// batcher's kernel-compatible pop.
class RequestQueue : public TwoLaneQueue<PendingRequest> {
 public:
  explicit RequestQueue(std::size_t capacity)
      : TwoLaneQueue<PendingRequest>(capacity) {}

  /// Admission: enqueues or rejects with RESOURCE_EXHAUSTED when full,
  /// FAILED_PRECONDITION when closed. Never blocks the producer.
  Status push(PendingRequest pending);

  /// Pops the oldest queued request for `kernel` in `sla` class, blocking
  /// until one arrives; nullopt once `deadline` passes or on close().
  /// Clock::now() takes only what is already queued.
  std::optional<PendingRequest> pop_compatible(const std::string& kernel,
                                               SlaClass sla,
                                               Clock::time_point deadline);
};

}  // namespace everest::serve
