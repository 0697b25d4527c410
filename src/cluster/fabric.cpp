#include "cluster/fabric.hpp"

#include <algorithm>

namespace everest::cluster {

ForwardFabric::ForwardFabric(std::size_t num_nodes,
                             platform::LinkModel model)
    : n_(num_nodes),
      model_(std::move(model)),
      epoch_(std::chrono::steady_clock::now()) {
  links_.resize(n_ * n_);
  for (std::size_t s = 0; s < n_; ++s) {
    for (std::size_t d = 0; d < n_; ++d) {
      if (s == d) continue;
      auto l = std::make_unique<Link>();
      l->channel = std::make_unique<platform::LinkChannel>(l->sim, model_);
      links_[s * n_ + d] = std::move(l);
    }
  }
}

double ForwardFabric::hop_us(std::size_t src, std::size_t dst,
                             double bytes) {
  if (src == dst || src >= n_ || dst >= n_) return 0.0;
  const double wall_us =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count() /
      1e3;

  Link& l = link(src, dst);
  std::lock_guard<std::mutex> lock(l.mu);
  // The link's sim clock only moves when transfers run, so it lags the
  // wall when idle (no queueing) and leads it right after a burst (the
  // lead is exactly the backlog the next hop must wait out).
  const double backlog_us = std::max(0.0, l.sim.now() - wall_us);
  const double start = l.sim.now();
  double done_at = start;
  l.channel->transfer(bytes, [&l, &done_at] { done_at = l.sim.now(); });
  l.sim.run();  // previous hops already completed; this drains ours
  return backlog_us + (done_at - start);
}

}  // namespace everest::cluster
