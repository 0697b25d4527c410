// Inter-node interconnect model for the federation: one fair-share
// platform::LinkChannel per directed node pair, each inside its own
// discrete-event Simulator whose clock is anchored to the wall. A hop is
// issued at the wall instant it happens; if earlier hops on the same
// link pushed that link's simulation clock ahead of the wall, the new
// hop inherits the difference as queueing delay before its own transfer
// time — an M/G/1-style FIFO link under load, exact LinkModel cost when
// idle.
//
// Per-link locking: hops on distinct node pairs never contend.
#pragma once

#include <chrono>
#include <memory>
#include <mutex>
#include <vector>

#include "platform/desim.hpp"
#include "platform/links.hpp"

namespace everest::cluster {

class ForwardFabric {
 public:
  ForwardFabric(std::size_t num_nodes, platform::LinkModel model);

  /// Models moving `bytes` from `src` to `dst` right now; returns the
  /// hop's total cost (µs) = queueing behind transfers already booked on
  /// that link + the transfer itself. Does not sleep — callers charge
  /// the cost where it belongs (the forwarded request's latency).
  double hop_us(std::size_t src, std::size_t dst, double bytes);

 private:
  /// One directed link: its own simulator so backlog on (a, b) never
  /// couples to (c, d).
  struct Link {
    std::mutex mu;
    platform::Simulator sim;
    std::unique_ptr<platform::LinkChannel> channel;
  };

  Link& link(std::size_t src, std::size_t dst) {
    return *links_[src * n_ + dst];
  }

  std::size_t n_;
  platform::LinkModel model_;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<std::unique_ptr<Link>> links_;
};

}  // namespace everest::cluster
