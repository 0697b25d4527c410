// Batch formation: coalesces compatible requests (same kernel, same SLA
// class) into one dispatchable unit under a max-batch-size + max-wait-µs
// policy. Batching amortizes per-invocation setup (ensemble generation,
// variant selection, accelerator role state) across requests — the
// classic throughput lever of serving systems — while the wait bound and
// the smaller latency-critical cap keep the latency cost explicit.
#pragma once

#include <chrono>
#include <cstddef>
#include <vector>

#include "serve/request_queue.hpp"

namespace everest::serve {

/// Knobs of the coalescing policy (bench E17 sweeps these).
struct BatchPolicy {
  /// Upper bound for throughput-class batches. 1 disables batching.
  std::size_t max_batch = 8;
  /// Latency-critical batches stay small so they never wait long.
  std::size_t lc_max_batch = 2;
  /// How long a partially filled batch may wait for more arrivals before
  /// it is flushed (so a lone request still flushes, at size 1), counted
  /// from the opening request's admission: a head that already queued
  /// this long flushes with whatever compatible requests are queued.
  std::chrono::microseconds max_wait{500};
};

/// One formed batch: homogeneous kernel and SLA class.
struct Batch {
  std::string kernel;
  SlaClass sla = SlaClass::kThroughput;
  std::vector<PendingRequest> requests;
  [[nodiscard]] std::size_t size() const { return requests.size(); }
};

/// Pulls from a RequestQueue and forms batches. Any number of threads may
/// call next_batch() concurrently (the queue is the synchronization
/// point); in the server the workers take turns at it under one mutex,
/// so one batch forms at a time, and each runs the batch it formed.
class Batcher {
 public:
  Batcher(RequestQueue* queue, BatchPolicy policy)
      : queue_(queue), policy_(policy) {}

  /// Blocks until a batch is available or the queue is closed and empty.
  /// Returns false only on shutdown. The first popped request opens the
  /// batch; compatible requests already queued (or arriving until
  /// max_wait after the opening request's enqueue_time) join until the
  /// class's size cap is hit.
  bool next_batch(Batch* out);

 private:
  RequestQueue* queue_;
  BatchPolicy policy_;
};

}  // namespace everest::serve
