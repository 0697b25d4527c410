#include "stream/pubsub.hpp"

#include <algorithm>

namespace everest::stream {

void ShardPublisher::subscribe(data::ObjectId object, std::size_t node) {
  subs_[object].insert(node);
}

Status ShardPublisher::publish(data::ObjectId object, double bytes,
                               std::size_t producer, double delta_fraction) {
  if (delta_fraction <= 0.0 || delta_fraction > 1.0) {
    return InvalidArgument("delta_fraction must be in (0, 1]");
  }
  plane_->put(object, bytes, producer);
  ++stats_.publishes;

  const data::DataObject* obj = plane_->find(object);
  if (obj == nullptr) return Internal("object vanished after put");

  auto it = subs_.find(object);
  if (it == subs_.end()) return OkStatus();

  for (const std::size_t node : it->second) {
    for (const data::ShardKey& key : obj->keys()) {
      const double shard_bytes = obj->shard_bytes(key.shard);
      // A node holding a durable replica of this shard reads locally;
      // pushing to its cache would be wasted traffic.
      const std::vector<std::size_t> holders = plane_->replicas(key);
      if (std::find(holders.begin(), holders.end(), node) != holders.end()) {
        continue;
      }
      const std::size_t src = holders.empty() ? producer : holders.front();
      if (src == node) continue;
      const double delta = shard_bytes * delta_fraction;
      const double refetch_cost =
          plane_->transfers().estimate_us(shard_bytes, src, node);
      ++stats_.deltas_pushed;
      stats_.delta_bytes += delta;
      stats_.full_bytes += shard_bytes;
      plane_->transfers().fetch(key, delta, src, node, [this, key, node,
                                                        shard_bytes,
                                                        refetch_cost] {
        // The delta applied on top of the stale copy yields the new
        // version: the cache now answers reads at `key` (version
        // included) without a full fetch.
        plane_->cache(node).insert(key, shard_bytes, refetch_cost);
        ++stats_.deltas_arrived;
      });
    }
  }
  return OkStatus();
}

}  // namespace everest::stream
