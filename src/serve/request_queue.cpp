#include "serve/request_queue.hpp"

#include <algorithm>

namespace everest::serve {

Status RequestQueue::push(PendingRequest pending) {
  const int lane = static_cast<int>(pending.request.sla);
  const std::string_view kernel = pending.request.kernel;
  return TwoLaneQueue<PendingRequest>::push(std::move(pending), lane,
                                            "request", kernel);
}

std::optional<PendingRequest> RequestQueue::pop_compatible(
    const std::string& kernel, SlaClass sla, Clock::time_point deadline) {
  std::unique_lock<std::mutex> lock(mu_);
  Lane& lane = lanes_[static_cast<int>(sla)];
  auto it = lane.items.end();
  cv_.wait_until(lock, deadline, [&] {
    it = std::find_if(lane.begin(), lane.items.end(),
                      [&](const PendingRequest& p) {
                        return p.request.kernel == kernel;
                      });
    return it != lane.items.end() || closed_;
  });
  if (it == lane.items.end()) return std::nullopt;
  PendingRequest out = std::move(*it);
  lane.items.erase(it);
  return out;
}

}  // namespace everest::serve
