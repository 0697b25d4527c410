#include "serve/batcher.hpp"

namespace everest::serve {

bool Batcher::next_batch(Batch* out) {
  // The opening request: waits for a push, or for close() on an empty queue.
  std::optional<PendingRequest> head = queue_->pop(Clock::time_point::max());
  if (!head) return false;

  out->kernel = head->request.kernel;
  out->sla = head->request.sla;
  out->requests.clear();
  out->requests.push_back(std::move(*head));

  const std::size_t cap = out->sla == SlaClass::kLatencyCritical
                              ? policy_.lc_max_batch
                              : policy_.max_batch;
  // Fill until the cap; a flush deadline or close() ends the wait early
  // (a lone request flushes at size 1). The deadline counts from the
  // head's admission, so a head that already queued max_wait behind a
  // busy worker takes only what is queued instead of waiting again.
  const Clock::time_point flush_at =
      out->requests.front().request.enqueue_time + policy_.max_wait;
  while (out->requests.size() < cap) {
    auto more = queue_->pop_compatible(out->kernel, out->sla, flush_at);
    if (!more) break;
    out->requests.push_back(std::move(*more));
  }
  return true;
}

}  // namespace everest::serve
