#include "data/plane.hpp"

#include <algorithm>
#include <utility>

namespace everest::data {

namespace {

std::vector<StorageNode> make_nodes(const PlaneConfig& config) {
  std::vector<StorageNode> nodes(config.num_nodes);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    nodes[i].name = "node" + std::to_string(i);
    nodes[i].capacity_bytes = config.node_capacity_bytes;
  }
  return nodes;
}

PlacementConfig make_placement_config(const PlaneConfig& config) {
  PlacementConfig pc = config.placement;
  pc.replication = config.replication;  // PlaneConfig is authoritative
  return pc;
}

/// Canonical shard spelling for the scrub/repair journal.
std::string key_str(const ShardKey& key) {
  return "o" + std::to_string(key.object) + "/s" + std::to_string(key.shard) +
         "@v" + std::to_string(key.version);
}

/// Evictions between resume probes while a tier sheds writes. Low enough
/// that a cleared fault is noticed within a handful of evictions, high
/// enough that a sick disk is not hammered with probe opens.
constexpr std::uint64_t kResumeProbeEvery = 16;

}  // namespace

DataPlane::DataPlane(platform::Simulator& sim, PlaneConfig config)
    : sim_(&sim),
      config_(config),
      placement_(make_nodes(config), make_placement_config(config)),
      xfer_(sim, [link = config.link](std::size_t, std::size_t) {
        return link;
      }) {
  caches_.reserve(config_.num_nodes);
  for (std::size_t i = 0; i < config_.num_nodes; ++i) {
    caches_.push_back(std::make_unique<Cache>(
        CacheConfig{config_.cache_bytes, config_.eviction}));
  }
  if (config_.storage.enabled()) {
    tiers_.reserve(config_.num_nodes);
    scrubbers_.reserve(config_.num_nodes);
    tier_read_only_.assign(config_.num_nodes, 0);
    resume_probe_.assign(config_.num_nodes, 0);
    for (std::size_t i = 0; i < config_.num_nodes; ++i) {
      storage::TierConfig tc;
      tc.capacity_bytes = config_.storage.disk_capacity_bytes;
      tc.io = config_.storage.io;
      tc.segment = config_.storage.segment;
      tc.env = config_.storage.env;
      if (!config_.storage.dir.empty()) {
        tc.dir = config_.storage.dir + "/tier" + std::to_string(i);
      }
      tiers_.push_back(std::make_unique<storage::DiskTier>(
          sim, i, std::move(tc), config_.registry));
      scrubbers_.push_back(std::make_unique<storage::Scrubber>(
          tiers_[i]->store(), config_.storage.scrub, config_.registry, i));
      caches_[i]->set_on_evict(
          [this, i](const ShardKey& key, double bytes, double cost) {
            on_cache_evict(i, key, bytes, cost);
          });
    }
    if (config_.storage.durable()) {
      log_ = std::make_unique<storage::CatalogLog>(
          config_.storage.dir, config_.storage.log, config_.registry,
          config_.storage.env);
    }
  }
  if (config_.registry != nullptr) {
    obs::Registry& reg = *config_.registry;
    ctr_local_hits_ = reg.counter("data.local_hits");
    ctr_cache_hits_ = reg.counter("data.cache_hits");
    ctr_cache_misses_ = reg.counter("data.cache_misses");
    ctr_evictions_ = reg.counter("data.evictions");
    ctr_prefetch_issued_ = reg.counter("data.prefetch_issued");
    ctr_prefetch_useful_ = reg.counter("data.prefetch_useful");
    if (config_.storage.enabled()) {
      ctr_tier_hits_ = reg.counter("data.tier_hits");
      ctr_demotions_ = reg.counter("data.demotions");
      ctr_demote_rejected_ = reg.counter("data.demote_rejected");
      ctr_disk_rescues_ = reg.counter("data.disk_rescues");
      ctr_repairs_ = reg.counter("storage.repair.shards");
      ctr_repair_lost_ = reg.counter("storage.repair.lost");
      hist_repair_us_ = reg.histogram("storage.repair.mttr_us");
      gauge_tier_ro_.resize(config_.num_nodes);
      for (std::size_t i = 0; i < config_.num_nodes; ++i) {
        // 0/1 flag per labeled node; kMax keeps re-registration and
        // cross-registry merges from double-counting the flag.
        gauge_tier_ro_[i] = reg.gauge("storage.tier.read_only",
                                      obs::GaugeKind::kMax,
                                      {{"node", std::to_string(i)}});
      }
    }
  }
}

void DataPlane::log_apply(storage::LogRecord record) {
  if (!config_.storage.enabled()) return;
  if (log_ != nullptr) {
    // The ack's durability status is surfaced by the log itself
    // (storage.log.degraded gauge, io_errors counter, pending backlog);
    // the record is stamped either way and lands on disk when the
    // medium recovers or the next checkpoint subsumes it.
    record.seq = log_->append(record).seq;
  } else {
    record.seq = ++mem_seq_;
  }
  catalog_.apply(record);
}

void DataPlane::note_tier_fault(std::size_t node) {
  if (tier_read_only_[node] != 0) return;
  tier_read_only_[node] = 1;
  resume_probe_[node] = 0;
  ++counters_.tier_faults;
  if (node < gauge_tier_ro_.size() && gauge_tier_ro_[node] != nullptr) {
    gauge_tier_ro_[node]->set(1.0);
  }
  scrub_journal_.push_back("tier-read-only node=" + std::to_string(node));
}

void DataPlane::note_tier_resume(std::size_t node) {
  if (tier_read_only_[node] == 0) return;
  tier_read_only_[node] = 0;
  ++counters_.tier_resumes;
  if (node < gauge_tier_ro_.size() && gauge_tier_ro_[node] != nullptr) {
    gauge_tier_ro_[node]->set(0.0);
  }
  scrub_journal_.push_back("tier-resumed node=" + std::to_string(node));
}

void DataPlane::on_cache_evict(std::size_t node, const ShardKey& key,
                               double bytes, double refetch_cost_us) {
  storage::DiskTier& tier = *tiers_[node];
  // Degraded medium: shed demotions entirely (reads still work), but
  // probe every few evictions so writes resume the moment the fault
  // clears — no operator action required.
  if (tier_read_only_[node] != 0) {
    if (++resume_probe_[node] % kResumeProbeEvery == 0 &&
        tier.try_resume().ok()) {
      note_tier_resume(node);
    } else {
      ++counters_.demote_rejected;
      if (ctr_demote_rejected_ != nullptr) ctr_demote_rejected_->inc();
      return;
    }
  }
  // Cheap-to-refetch shards are not worth disk space or write bandwidth.
  if (refetch_cost_us < config_.storage.demote_min_refetch_us) {
    ++counters_.demote_rejected;
    if (ctr_demote_rejected_ != nullptr) ctr_demote_rejected_->inc();
    return;
  }
  // A stale version can never be read again (the version is part of
  // every future key): drop it instead of preserving garbage.
  auto it = objects_.find(key.object);
  if (it == objects_.end() || it->second.version != key.version) return;
  if (tier.resident(key)) return;  // already safe on this disk
  const std::uint64_t seals_before = tier.store().stats().seals;
  const Status st = tier.demote(key, bytes);
  if (!st.ok()) {
    ++counters_.demote_rejected;
    if (ctr_demote_rejected_ != nullptr) ctr_demote_rejected_->inc();
    // Distinguish a sick medium (EIO/ENOSPC through the Env — the store
    // latched read-only) from a merely full tier: only the former
    // trips the degraded flag and the storage.tier.read_only gauge.
    if (tier.media_degraded()) note_tier_fault(node);
    return;
  }
  ++counters_.demotions;
  if (ctr_demotions_ != nullptr) ctr_demotions_->inc();
  counters_.bytes_demoted += bytes;
  log_apply({storage::LogRecordType::kDemote, 0, key.object, key.shard,
             key.version, node, bytes});
  // Advisory: record segment seals so replay analysis can line compaction
  // pressure up against the mutation stream.
  for (std::uint64_t s = seals_before; s < tier.store().stats().seals; ++s) {
    log_apply({storage::LogRecordType::kSeal, 0, 0, 0, 0, node, 0.0});
  }
}

std::size_t DataPlane::disk_holder(const ShardKey& key) const {
  for (std::size_t t = 0; t < tiers_.size(); ++t) {
    if (tiers_[t]->resident(key)) return t;
  }
  return kNoNode;
}

bool DataPlane::shard_alive(const ShardKey& key) const {
  auto it = replicas_.find(key);
  if (it != replicas_.end() && !it->second.empty()) return true;
  return disk_holder(key) != kNoNode;
}

void DataPlane::mirror_evictions(std::uint64_t before, const Cache& cache) {
  if (ctr_evictions_ != nullptr) {
    ctr_evictions_->inc(cache.stats().evictions - before);
  }
}

void DataPlane::put(ObjectId id, double bytes, std::size_t node,
                    std::string producer) {
  DataObject* obj;
  auto it = objects_.find(id);
  if (it != objects_.end()) {
    // Fresh content supersedes whatever copies remain: release them and
    // stale their version so no cached shard of the old content can hit.
    obj = &it->second;
    drop_object_replicas(*obj);
    ++obj->version;
    for (auto& cache : caches_) cache->invalidate_object(id, obj->version);
    for (auto& tier : tiers_) {
      if (!tier->offline()) tier->invalidate_object(id, obj->version);
    }
    obj->total_bytes = bytes;
    obj->producer = std::move(producer);
  } else {
    DataObject fresh;
    fresh.id = id;
    fresh.total_bytes = bytes;
    fresh.producer = std::move(producer);
    obj = &objects_.emplace(id, std::move(fresh)).first->second;
  }
  obj->num_shards = shard_count(bytes, config_.shard_limit_bytes);
  log_apply({storage::LogRecordType::kPut, 0, id, obj->num_shards,
             obj->version, node, bytes});

  for (std::uint32_t s = 0; s < obj->num_shards; ++s) {
    const ShardKey key = obj->key(s);
    const double sb = obj->shard_bytes(s);
    auto placed = placement_.place(key, sb, node);
    if (!placed.ok()) continue;  // no room anywhere: object stays lost
    for (std::size_t holder : placed.value()) {
      if (holder != node) counters_.bytes_replicated += sb;
      log_apply({storage::LogRecordType::kPlace, 0, key.object, key.shard,
                 key.version, holder, sb});
    }
    replicas_[key] = std::move(placed).value();
  }
}

bool DataPlane::available(ObjectId id) const {
  auto it = objects_.find(id);
  if (it == objects_.end()) return false;
  const DataObject& obj = it->second;
  for (std::uint32_t s = 0; s < obj.num_shards; ++s) {
    if (!shard_alive(obj.key(s))) return false;
  }
  return true;
}

const DataObject* DataPlane::find(ObjectId id) const {
  auto it = objects_.find(id);
  return it == objects_.end() ? nullptr : &it->second;
}

Result<std::size_t> DataPlane::primary_node(ObjectId id) const {
  if (!available(id)) {
    return NotFound("object " + std::to_string(id) +
                    " has no live replica; recompute it");
  }
  const DataObject& obj = objects_.at(id);
  // Lowest-index node holding every shard — in RAM or on its own online
  // disk tier (a tier copy is locally promotable, no fabric involved).
  for (std::size_t n = 0; n < caches_.size(); ++n) {
    bool holds_all = true;
    for (std::uint32_t s = 0; s < obj.num_shards && holds_all; ++s) {
      const ShardKey key = obj.key(s);
      auto hit = replicas_.find(key);
      holds_all = (hit != replicas_.end() &&
                   std::find(hit->second.begin(), hit->second.end(), n) !=
                       hit->second.end()) ||
                  (n < tiers_.size() && tiers_[n]->resident(key));
    }
    if (holds_all) return n;
  }
  // …else the shards are scattered (post-crash re-placement): point at
  // shard 0's preferred source; stage() moves the rest.
  auto rit = replicas_.find(obj.key(0));
  if (rit != replicas_.end() && !rit->second.empty()) {
    return rit->second.front();
  }
  // No RAM replica at all — but the object is available, so an online
  // disk tier holds it: promote from there instead of recomputing.
  const std::size_t t = disk_holder(obj.key(0));
  if (t != kNoNode) return t;
  return NotFound("object " + std::to_string(id) +
                  " has no live replica; recompute it");
}

Status DataPlane::stage(ObjectId id, std::size_t dst,
                        platform::Simulator::Callback on_staged) {
  return stage_impl(id, dst, /*is_prefetch=*/false, std::move(on_staged));
}

Status DataPlane::prefetch(ObjectId id, std::size_t dst) {
  return stage_impl(id, dst, /*is_prefetch=*/true, nullptr);
}

Status DataPlane::stage_impl(ObjectId id, std::size_t dst, bool is_prefetch,
                             platform::Simulator::Callback on_staged) {
  if (!available(id)) {
    return NotFound("object " + std::to_string(id) +
                    " is not in the data plane");
  }
  const DataObject& obj = objects_.at(id);

  struct StageState {
    std::size_t pending = 0;
    platform::Simulator::Callback on_staged;
  };
  auto state = std::make_shared<StageState>();
  state->on_staged = std::move(on_staged);

  static const std::vector<std::size_t> kNoHolders;
  for (std::uint32_t s = 0; s < obj.num_shards; ++s) {
    const ShardKey key = obj.key(s);
    const double sb = obj.shard_bytes(s);
    auto rit = replicas_.find(key);
    const auto& holders = rit == replicas_.end() ? kNoHolders : rit->second;
    if (std::find(holders.begin(), holders.end(), dst) != holders.end()) {
      if (!is_prefetch) {
        ++counters_.local_hits;
        if (ctr_local_hits_ != nullptr) ctr_local_hits_->inc();
      }
      continue;
    }
    Cache& cache = *caches_[dst];
    if (is_prefetch) {
      // Quiet path: no hit/miss accounting, skip anything already here
      // or already on the wire.
      if (cache.contains(key) || xfer_.in_flight(key, dst)) continue;
      ++counters_.prefetch_issued;
      if (ctr_prefetch_issued_ != nullptr) ctr_prefetch_issued_->inc();
    } else if (cache.lookup(key)) {
      if (ctr_cache_hits_ != nullptr) ctr_cache_hits_->inc();
      const auto tag = std::make_pair(key, dst);
      auto pit = prefetched_.find(tag);
      if (pit != prefetched_.end()) {
        ++counters_.prefetch_useful;
        if (ctr_prefetch_useful_ != nullptr) ctr_prefetch_useful_->inc();
        prefetched_.erase(pit);
      }
      continue;
    } else if (ctr_cache_misses_ != nullptr) {
      ctr_cache_misses_->inc();
    }

    // A staging's promote/xfer spans join the object's synthetic trace.
    const std::uint64_t span_trace = key.object + 1;

    // Miss. Cheapest source first: this node's own disk tier — a local
    // NVMe read instead of any fabric traffic.
    if (dst < tiers_.size() && tiers_[dst]->resident(key)) {
      const double cost = tiers_[dst]->read_estimate_us(sb);
      if (!is_prefetch) ++state->pending;
      const double issue_us = sim_->now();
      (void)tiers_[dst]->promote(
          key, [this, key, sb, cost, dst, is_prefetch, state, issue_us,
                span_trace] {
            ++counters_.tier_hits;
            if (ctr_tier_hits_ != nullptr) ctr_tier_hits_->inc();
            counters_.bytes_promoted += sb;
            log_apply({storage::LogRecordType::kPromote, 0, key.object,
                       key.shard, key.version, dst, sb});
            if (tracing()) {
              config_.tracer->span(
                  obs::TimeDomain::kSim, span_trace,
                  config_.tracer->next_id(), /*parent=*/0, issue_us,
                  sim_->now(), static_cast<std::uint32_t>(dst), "promote",
                  "data",
                  {{"object", std::to_string(key.object)},
                   {"shard", std::to_string(key.shard)},
                   {"node", std::to_string(dst)},
                   {"bytes", std::to_string(sb)}});
            }
            const std::uint64_t ev0 = caches_[dst]->stats().evictions;
            (void)caches_[dst]->insert(key, sb, cost);
            mirror_evictions(ev0, *caches_[dst]);
            if (is_prefetch) {
              prefetched_.insert({key, dst});
              return;
            }
            if (--state->pending == 0 && state->on_staged) {
              state->on_staged();
            }
          });
      continue;
    }

    if (!holders.empty()) {
      // Fetch from the preferred (birth-first) holder; dedup rides any
      // in-flight copy of the same shard to the same destination.
      const std::size_t src = holders.front();
      const double refetch_cost = xfer_.estimate_us(sb, src, dst);
      if (!is_prefetch) ++state->pending;
      const double issue_us = sim_->now();
      xfer_.fetch(key, sb, src, dst,
                  [this, key, sb, refetch_cost, src, dst, is_prefetch, state,
                   issue_us, span_trace] {
                    if (tracing()) {
                      // Sim-time transfer span on the destination's track,
                      // in the owning object/task's (or caller's) trace.
                      config_.tracer->span(
                          obs::TimeDomain::kSim, span_trace,
                          config_.tracer->next_id(), /*parent=*/0, issue_us,
                          sim_->now(),
                          static_cast<std::uint32_t>(dst), "xfer", "data",
                          {{"object", std::to_string(key.object)},
                           {"shard", std::to_string(key.shard)},
                           {"src", std::to_string(src)},
                           {"dst", std::to_string(dst)},
                           {"bytes", std::to_string(sb)},
                           {"prefetch", is_prefetch ? "1" : "0"}});
                    }
                    const std::uint64_t ev0 = caches_[dst]->stats().evictions;
                    (void)caches_[dst]->insert(key, sb, refetch_cost);
                    mirror_evictions(ev0, *caches_[dst]);
                    if (is_prefetch) {
                      prefetched_.insert({key, dst});
                      return;
                    }
                    if (--state->pending == 0 && state->on_staged) {
                      state->on_staged();
                    }
                  });
      continue;
    }

    // No RAM copy anywhere — a remote disk tier is the last live source
    // (the availability check above guarantees one exists): promote at
    // the source node, then move the bytes over the fabric.
    const std::size_t src = disk_holder(key);
    if (src == kNoNode) continue;  // raced away; defensively skip
    const double cost =
        tiers_[src]->read_estimate_us(sb) + xfer_.estimate_us(sb, src, dst);
    if (!is_prefetch) ++state->pending;
    const double issue_us = sim_->now();
    (void)tiers_[src]->promote(
        key, [this, key, sb, cost, src, dst, is_prefetch, state, issue_us,
              span_trace] {
          ++counters_.tier_hits;
          if (ctr_tier_hits_ != nullptr) ctr_tier_hits_->inc();
          counters_.bytes_promoted += sb;
          log_apply({storage::LogRecordType::kPromote, 0, key.object,
                     key.shard, key.version, src, sb});
          xfer_.fetch(
              key, sb, src, dst,
              [this, key, sb, cost, src, dst, is_prefetch, state, issue_us,
               span_trace] {
                if (tracing()) {
                  config_.tracer->span(
                      obs::TimeDomain::kSim, span_trace,
                      config_.tracer->next_id(), /*parent=*/0, issue_us,
                      sim_->now(),
                      static_cast<std::uint32_t>(dst), "xfer", "data",
                      {{"object", std::to_string(key.object)},
                       {"shard", std::to_string(key.shard)},
                       {"src", std::to_string(src)},
                       {"dst", std::to_string(dst)},
                       {"bytes", std::to_string(sb)},
                       {"tier", "1"},
                       {"prefetch", is_prefetch ? "1" : "0"}});
                }
                const std::uint64_t ev0 = caches_[dst]->stats().evictions;
                (void)caches_[dst]->insert(key, sb, cost);
                mirror_evictions(ev0, *caches_[dst]);
                if (is_prefetch) {
                  prefetched_.insert({key, dst});
                  return;
                }
                if (--state->pending == 0 && state->on_staged) {
                  state->on_staged();
                }
              });
        });
  }
  if (!is_prefetch && state->pending == 0 && state->on_staged) {
    sim_->schedule(0.0, std::move(state->on_staged));
  }
  return OkStatus();
}

std::vector<ObjectId> DataPlane::invalidate_node(std::size_t node) {
  caches_[node]->clear();
  for (auto it = prefetched_.begin(); it != prefetched_.end();) {
    it = it->second == node ? prefetched_.erase(it) : std::next(it);
  }
  placement_.set_failed(node, true);  // also zeroes its usage
  xfer_.abandon_destination(node);
  // Fail-stop: the node's disk tier stops serving but keeps its bytes
  // (disks survive process death); restore_node brings it back as-is.
  if (node < tiers_.size()) tiers_[node]->set_offline(true);

  std::set<ObjectId> touched;
  std::set<ObjectId> rescued;
  std::set<ObjectId> lost;
  for (auto& [key, holders] : replicas_) {
    auto pos = std::find(holders.begin(), holders.end(), node);
    if (pos == holders.end()) continue;
    holders.erase(pos);
    log_apply({storage::LogRecordType::kRelease, 0, key.object, key.shard,
               key.version, node, 0.0});
    if (!holders.empty()) {
      touched.insert(key.object);
    } else if (disk_holder(key) != kNoNode) {
      // The last RAM replica died, but an online disk tier still holds
      // the shard: rescued, not lost — reads will promote it.
      rescued.insert(key.object);
    } else {
      lost.insert(key.object);
    }
  }
  for (ObjectId id : touched) {
    if (lost.count(id) == 0 && rescued.count(id) == 0) {
      ++counters_.reads_repointed;
    }
  }
  for (ObjectId id : rescued) {
    if (lost.count(id) == 0) {
      ++counters_.disk_rescues;
      if (ctr_disk_rescues_ != nullptr) ctr_disk_rescues_->inc();
    }
  }

  std::vector<ObjectId> out;
  out.reserve(lost.size());
  for (ObjectId id : lost) {  // std::set → ascending, as promised
    DataObject& obj = objects_.at(id);
    // A partial object is useless: drop its surviving shards too, then
    // stale the version so cached copies anywhere can never hit again.
    drop_object_replicas(obj);
    ++obj.version;
    ++counters_.objects_lost;
    for (auto& cache : caches_) cache->invalidate_object(id, obj.version);
    for (auto& tier : tiers_) {
      if (!tier->offline()) tier->invalidate_object(id, obj.version);
    }
    log_apply({storage::LogRecordType::kInvalidate, 0, id, 0, obj.version,
               node, 0.0});
    out.push_back(id);
  }
  return out;
}

void DataPlane::restore_node(std::size_t node) {
  placement_.set_failed(node, false);
  if (node < tiers_.size()) tiers_[node]->set_offline(false);
}

Status DataPlane::checkpoint() {
  if (log_ == nullptr) return OkStatus();  // nothing durable to compact
  return log_->checkpoint(catalog_);
}

Result<storage::RecoveryReport> DataPlane::recover() {
  if (!config_.storage.durable()) {
    return FailedPrecondition(
        "recover() needs a durable storage dir in PlaneConfig::storage");
  }
  storage::RecoveryReport report = storage::recover_catalog(
      config_.storage.dir, config_.registry, config_.tracer);
  catalog_ = report.replay.catalog;
  mem_seq_ = catalog_.last_seq();

  // Re-seed the in-RAM maps from the replayed catalog. Transient state
  // (caches, prefetch tags, in-flight transfers) died with the process
  // and starts empty; the durable maps come back exactly.
  objects_.clear();
  replicas_.clear();
  prefetched_.clear();
  for (const auto& [id, meta] : catalog_.objects()) {
    DataObject obj;
    obj.id = id;
    obj.total_bytes = meta.bytes;
    obj.num_shards = meta.num_shards;
    obj.version = meta.version;
    objects_.emplace(id, std::move(obj));
  }
  for (const auto& [key, holders] : catalog_.ram_replicas()) {
    auto it = objects_.find(key.object);
    if (it == objects_.end() || it->second.version != key.version) continue;
    const double sb = it->second.shard_bytes(key.shard);
    std::vector<std::size_t>& dst = replicas_[key];
    for (std::uint64_t n : holders) {
      if (n >= caches_.size()) continue;  // shrunk deployment: drop
      dst.push_back(static_cast<std::size_t>(n));
      placement_.adopt(static_cast<std::size_t>(n), sb);
    }
    if (dst.empty()) replicas_.erase(key);
  }

  // Reconcile every tier's segment index with the catalog: the catalog
  // is authoritative (it is the WAL), segment files are the payload
  // ledger. Adopt what the catalog knows and the store lost; drop what
  // the store kept but the catalog disowned (stale versions, torn tails).
  for (std::size_t t = 0; t < tiers_.size(); ++t) {
    std::vector<ShardKey> stale;
    tiers_[t]->store().for_each([&](const ShardKey& key, double) {
      auto it = catalog_.disk().find(key);
      if (it == catalog_.disk().end() || it->second.nodes.count(t) == 0) {
        stale.push_back(key);
      }
    });
    for (const ShardKey& key : stale) tiers_[t]->erase(key);
  }
  for (const auto& [key, res] : catalog_.disk()) {
    for (std::uint64_t n : res.nodes) {
      if (n >= tiers_.size()) continue;
      if (!tiers_[n]->store().contains(key)) {
        tiers_[n]->adopt(key, res.bytes);
      }
    }
  }
  return report;
}

storage::ScrubReport DataPlane::scrub_node(std::size_t node) {
  storage::ScrubReport report;
  if (node >= scrubbers_.size()) return report;
  const double issued_us = sim_->now();
  report = scrubbers_[node]->step();
  counters_.scrub_verified += report.segments_verified;
  counters_.scrub_quarantined += report.segments_quarantined;
  for (const ShardKey& key : report.suspects) {
    scrub_journal_.push_back("suspect " + key_str(key) +
                             " node=" + std::to_string(node));
    // The quarantined copy is out of service; the catalog must agree
    // before repair re-shelters the shard (otherwise recover() would
    // adopt a ghost back into the very store that corrupted it).
    auto it = objects_.find(key.object);
    const double sb = it != objects_.end() && it->second.version == key.version
                          ? it->second.shard_bytes(key.shard)
                          : 0.0;
    log_apply({storage::LogRecordType::kDiskErase, 0, key.object, key.shard,
               key.version, node, sb});
    repair_shard(key, node, issued_us);
  }
  return report;
}

void DataPlane::repair_shard(const ShardKey& key, std::size_t home,
                             double issued_us) {
  auto it = objects_.find(key.object);
  if (it == objects_.end() || it->second.version != key.version) {
    // A stale version was rotting on disk: dropping it IS the repair.
    scrub_journal_.push_back("repair " + key_str(key) + " stale-skip");
    return;
  }
  const double sb = it->second.shard_bytes(key.shard);

  // Destination: the home disk unless its medium is gone — then the
  // lowest-index other healthy tier (re-replication onto a surviving
  // node, the hinted-handoff analogue for disk copies).
  const auto healthy = [this](std::size_t n) {
    return n < tiers_.size() && !tiers_[n]->offline() &&
           !tiers_[n]->media_degraded();
  };
  std::size_t dst = kNoNode;
  if (healthy(home)) {
    dst = home;
  } else {
    for (std::size_t n = 0; n < tiers_.size(); ++n) {
      if (n != home && healthy(n)) {
        dst = n;
        break;
      }
    }
  }

  const bool redirected = dst != kNoNode && dst != home;
  const auto finish = [this, key, sb, dst, redirected, issued_us] {
    const Status st = tiers_[dst]->demote(key, sb);
    if (!st.ok()) {
      scrub_journal_.push_back("repair " + key_str(key) + " dst=" +
                               std::to_string(dst) +
                               " failed: " + st.to_string());
      return;
    }
    log_apply({storage::LogRecordType::kDemote, 0, key.object, key.shard,
               key.version, dst, sb});
    ++counters_.repairs;
    if (redirected) ++counters_.repair_redirected;
    if (ctr_repairs_ != nullptr) ctr_repairs_->inc();
    if (hist_repair_us_ != nullptr) {
      hist_repair_us_->record(sim_->now() - issued_us);
    }
    scrub_journal_.push_back("repaired " + key_str(key) +
                             " dst=" + std::to_string(dst) +
                             (redirected ? " redirected" : ""));
  };

  if (dst != kNoNode) {
    if (tiers_[dst]->resident(key)) {
      // Another disk already shelters it (e.g. a redirected earlier
      // repair): nothing to move.
      scrub_journal_.push_back("repair " + key_str(key) +
                               " already-resident dst=" +
                               std::to_string(dst));
      return;
    }
    auto rit = replicas_.find(key);
    if (rit != replicas_.end() && !rit->second.empty()) {
      // Healthiest source: a RAM replica. Same node = straight demote;
      // remote = one fabric transfer, then demote on arrival.
      const std::size_t src = rit->second.front();
      if (src == dst) {
        finish();
      } else {
        xfer_.fetch(key, sb, src, dst, finish);
      }
      return;
    }
    const std::size_t src_t = disk_holder(key);
    if (src_t != kNoNode) {
      // Last live copy is a remote disk: promote it there, move the
      // bytes, demote into the destination tier.
      (void)tiers_[src_t]->promote(key, [this, key, sb, src_t, dst, finish] {
        counters_.bytes_promoted += sb;
        log_apply({storage::LogRecordType::kPromote, 0, key.object, key.shard,
                   key.version, src_t, sb});
        if (src_t == dst) {
          finish();
        } else {
          xfer_.fetch(key, sb, src_t, dst, finish);
        }
      });
      return;
    }
  } else if (shard_alive(key)) {
    // No healthy tier anywhere, but a RAM replica keeps the shard
    // alive: nothing to re-shelter onto disk right now.
    scrub_journal_.push_back("repair " + key_str(key) + " no-healthy-tier");
    return;
  }

  // No copy left anywhere: the rot won. Same treatment as losing the
  // last replica in a crash — version bump, caches staled, lineage
  // recomputes.
  DataObject& obj = it->second;
  drop_object_replicas(obj);
  ++obj.version;
  ++counters_.repair_lost;
  ++counters_.objects_lost;
  if (ctr_repair_lost_ != nullptr) ctr_repair_lost_->inc();
  for (auto& cache : caches_) cache->invalidate_object(key.object, obj.version);
  for (auto& tier : tiers_) {
    if (!tier->offline()) tier->invalidate_object(key.object, obj.version);
  }
  log_apply({storage::LogRecordType::kInvalidate, 0, key.object, 0,
             obj.version, home, 0.0});
  scrub_journal_.push_back("lost " + key_str(key));
}

std::vector<std::size_t> DataPlane::replicas(const ShardKey& key) const {
  auto it = replicas_.find(key);
  if (it == replicas_.end()) return {};
  std::vector<std::size_t> out = it->second;
  std::sort(out.begin(), out.end());
  return out;
}

PlaneStats DataPlane::stats() const {
  PlaneStats out = counters_;
  for (const auto& cache : caches_) {
    const CacheStats& cs = cache->stats();
    out.cache_hits += cs.hits;
    out.cache_misses += cs.misses;
    out.evictions += cs.evictions;
    out.bytes_evicted += cs.bytes_evicted;
  }
  const TransferStats& ts = xfer_.stats();
  out.transfers_issued = ts.issued;
  out.transfers_deduped = ts.deduped;
  out.bytes_fetched = ts.bytes_moved;
  return out;
}

void DataPlane::drop_object_replicas(const DataObject& object) {
  for (std::uint32_t s = 0; s < object.num_shards; ++s) {
    const ShardKey key = object.key(s);
    auto it = replicas_.find(key);
    if (it == replicas_.end()) continue;
    for (std::size_t holder : it->second) {
      placement_.release(holder, object.shard_bytes(s));
    }
    replicas_.erase(it);
  }
}

}  // namespace everest::data
