// Data-plane pub/sub: versioned-object invalidation as delta PUSH
// instead of lazy refetch. Without it, a producer publishing a new
// version of a shared object (a fresh weather ensemble, a recalibrated
// speed-profile table) leaves every consumer cache stale — the next
// stage() misses and pays a full-shard fetch. With a subscription, the
// publish itself schedules delta transfers (the fraction of the shard
// that actually changed) from the producing node to every subscriber's
// cache, over the same fair-share LinkChannels every other transfer
// shares — so the push congests honestly against foreground traffic
// and a later read at the subscriber hits the cache at the NEW version.
//
// Single-owner like the DataPlane it drives (one simulation thread).
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "data/plane.hpp"

namespace everest::stream {

struct PublishStats {
  std::uint64_t publishes = 0;
  std::uint64_t deltas_pushed = 0;   ///< shard-delta transfers scheduled
  std::uint64_t deltas_arrived = 0;  ///< pushes that landed in a cache
  double delta_bytes = 0.0;          ///< pushed over the fabric
  double full_bytes = 0.0;           ///< what refetching would have moved
};

/// Publisher side of the invalidation path for one DataPlane.
class ShardPublisher {
 public:
  explicit ShardPublisher(data::DataPlane& plane) : plane_(&plane) {}

  /// Registers `node`'s interest in `object`: every future publish
  /// pushes the new version's deltas into that node's cache.
  void subscribe(data::ObjectId object, std::size_t node);

  /// Re-registers `object` at a new version (DataPlane::put — replicas
  /// placed, old cached copies staled) and pushes `delta_fraction` of
  /// each shard's bytes to every subscribed node over the transfer
  /// fabric. On arrival the subscriber's cache holds the shard at the
  /// NEW version (refetch cost = a full fetch, which is what the delta
  /// saved). Subscribers that already hold a replica are skipped.
  Status publish(data::ObjectId object, double bytes, std::size_t producer,
                 double delta_fraction = 0.1);

  [[nodiscard]] const PublishStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t num_subscriptions(data::ObjectId object) const {
    auto it = subs_.find(object);
    return it == subs_.end() ? 0 : it->second.size();
  }

 private:
  data::DataPlane* plane_;
  std::map<data::ObjectId, std::set<std::size_t>> subs_;
  PublishStats stats_;
};

}  // namespace everest::stream
