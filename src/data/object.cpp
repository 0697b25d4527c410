#include "data/object.hpp"

#include <cmath>

#include "common/hash.hpp"

namespace everest::data {

std::string ShardKey::to_string() const {
  return std::to_string(object) + "/" + std::to_string(shard) + "@v" +
         std::to_string(version);
}

std::uint64_t hash_key(const ShardKey& key, std::uint64_t salt) {
  std::uint64_t h = fnv1a_word(key.object);
  h = fnv1a_word(key.shard, h);
  h = fnv1a_word(key.version, h);
  return fnv1a_word(salt, h);
}

ObjectId object_id_from_name(const std::string& name) { return fnv1a(name); }

double DataObject::shard_bytes(std::uint32_t i) const {
  if (num_shards == 0 || i >= num_shards) return 0.0;
  const double even = total_bytes / num_shards;
  if (i + 1 < num_shards) return even;
  return total_bytes - even * (num_shards - 1);
}

std::vector<ShardKey> DataObject::keys() const {
  std::vector<ShardKey> out;
  out.reserve(num_shards);
  for (std::uint32_t i = 0; i < num_shards; ++i) out.push_back(key(i));
  return out;
}

std::uint32_t shard_count(double total_bytes, double shard_limit_bytes) {
  if (total_bytes <= 0.0 || shard_limit_bytes <= 0.0) return 1;
  return static_cast<std::uint32_t>(
      std::ceil(total_bytes / shard_limit_bytes));
}

}  // namespace everest::data
