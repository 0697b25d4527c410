// The virtualized data plane (paper Fig. 2: the runtime "manages the
// data movement between the nodes" of the Fig. 3 hierarchy). One
// DataPlane instance tracks, for a set of simulated nodes:
//   * the catalog of versioned DataObjects and where their shard
//     replicas durably live (PlacementPolicy over node memories),
//   * a per-node transient Cache of remotely fetched shards,
//   * a TransferScheduler turning remote reads into fair-share link
//     transfers with in-flight dedup,
//   * prefetch accounting (staged-ahead shards that later save a fetch),
//     and
//   * an optional per-node disk tier (storage::DiskTier) under each
//     cache: capacity evictions demote cold shards to disk (cost-gated),
//     misses promote from disk before paying a remote fetch, and — when
//     a durable directory is configured — every catalog mutation is
//     write-ahead logged so recover() rebuilds this entire state after a
//     process death.
//
// A node crash invalidates exactly the shards that died: replicas on
// other nodes keep their objects alive (reads are repointed), shards
// whose last RAM replica died but that still have an online disk-tier
// copy are *rescued* (promotable, not lost), and only objects with a
// shard in neither place get a version bump — which is what
// resilience::lineage keys recomputation on. A crashed node's own disk
// tier goes offline but keeps its contents (fail-stop: disks survive).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "data/cache.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "data/object.hpp"
#include "data/placement.hpp"
#include "data/prefetcher.hpp"
#include "data/transfer.hpp"
#include "platform/desim.hpp"
#include "platform/links.hpp"
#include "storage/storage.hpp"

namespace everest::data {

struct PlaneConfig {
  std::size_t num_nodes = 0;
  /// Durable replica store per node.
  double node_capacity_bytes = 8.0 * 1024 * 1024 * 1024;
  /// Transient fetch cache per node (0 disables caching: every remote
  /// read pays a transfer).
  double cache_bytes = 64.0 * 1024 * 1024;
  EvictionPolicy eviction = EvictionPolicy::kLru;
  /// Durable copies per shard (>= 1; extras cost replication transfers).
  int replication = 1;
  /// Objects split into shards of at most this many bytes.
  double shard_limit_bytes = 4.0 * 1024 * 1024;
  /// Inter-node fabric (every pair; same node never transfers).
  platform::LinkModel link = platform::LinkModel::udp_datacenter();
  PlacementConfig placement;
  /// Disk tier + catalog log under the caches. Disabled by default
  /// (disk_capacity_bytes == 0): the plane then behaves byte-identically
  /// to a build without the storage subsystem.
  storage::StorageConfig storage;

  // ---- observability (both borrowed; may be null) ----
  /// Sink for per-transfer sim-time spans ("xfer", component "data",
  /// track = destination node, trace_id = object id + 1 so they land in
  /// the owning task's trace).
  obs::Tracer* tracer = nullptr;
  /// Registry mirror of the hit/miss/eviction/prefetch counters (the
  /// same numbers PlaneStats aggregates, live instead of post-run).
  obs::Registry* registry = nullptr;
};

/// Aggregated data-plane counters (sums per-node cache stats with
/// transfer and lifecycle accounting).
struct PlaneStats {
  std::uint64_t local_hits = 0;   ///< reads served by a resident replica
  std::uint64_t cache_hits = 0;   ///< reads served by the fetch cache
  std::uint64_t cache_misses = 0; ///< reads that paid (or joined) a fetch
  std::uint64_t evictions = 0;
  std::uint64_t transfers_issued = 0;
  std::uint64_t transfers_deduped = 0;
  std::uint64_t prefetch_issued = 0;  ///< fetches started ahead of demand
  std::uint64_t prefetch_useful = 0;  ///< demand hits on prefetched shards
  std::uint64_t objects_lost = 0;     ///< last copy died (version bumped)
  std::uint64_t reads_repointed = 0;  ///< crash survived via another replica
  std::uint64_t tier_hits = 0;        ///< misses served by a disk tier
  std::uint64_t demotions = 0;        ///< evicted shards written to disk
  std::uint64_t demote_rejected = 0;  ///< demotions cost-gated or refused
  std::uint64_t disk_rescues = 0;     ///< objects only the disk kept alive
  std::uint64_t scrub_verified = 0;     ///< sealed segments verified clean
  std::uint64_t scrub_quarantined = 0;  ///< corrupt segments pulled aside
  std::uint64_t repairs = 0;            ///< suspects re-sheltered from replicas
  std::uint64_t repair_redirected = 0;  ///< repairs re-homed to another node
  std::uint64_t repair_lost = 0;        ///< suspects with no live copy left
  std::uint64_t tier_faults = 0;        ///< tiers entering read-only (media)
  std::uint64_t tier_resumes = 0;       ///< read-only tiers writable again
  double bytes_fetched = 0.0;         ///< demand + prefetch fetch traffic
  double bytes_replicated = 0.0;      ///< extra-replica write traffic
  double bytes_evicted = 0.0;
  double bytes_demoted = 0.0;         ///< cache → disk tier traffic
  double bytes_promoted = 0.0;        ///< disk tier → cache traffic
};

/// Single-owner (one simulation drives it; the serve layer uses Cache
/// directly instead).
class DataPlane {
 public:
  DataPlane(platform::Simulator& sim, PlaneConfig config);

  // ---- object lifecycle ----

  /// Registers (or re-registers, after invalidation) `id` with fresh
  /// content produced on `node`. Shards it, places replicas, charges
  /// replication traffic for copies beyond the birth node.
  void put(ObjectId id, double bytes, std::size_t node,
           std::string producer = "");

  /// Object has a live copy of every shard at its current version — in
  /// RAM (a placed replica) or on an *online* disk tier. Disk-resident
  /// objects are available: a read promotes them instead of recomputing.
  [[nodiscard]] bool available(ObjectId id) const;

  [[nodiscard]] const DataObject* find(ObjectId id) const;

  /// A node currently holding every shard of `id` — the birth node while
  /// it lives, else the lowest-index full-copy holder, else the preferred
  /// source of shard 0. Disk-resident objects are NOT lost: when no RAM
  /// replica survives but an online disk tier still holds a shard, the
  /// tier's node is returned and a read there promotes from disk.
  /// NOT_FOUND only when the object is unknown or truly lost — no copy in
  /// RAM or on any online disk — which is not retryable: the object must
  /// be recomputed, not re-asked-for.
  [[nodiscard]] Result<std::size_t> primary_node(ObjectId id) const;

  // ---- read path ----

  /// Ensures every shard of `id` is readable at `dst` (replica, cached
  /// copy, or fetched now); `on_staged` fires as a simulator event once
  /// all shards arrived. Counts hits/misses per shard. NOT_FOUND when the
  /// object is unknown or lost (on_staged is then never invoked).
  Status stage(ObjectId id, std::size_t dst,
               platform::Simulator::Callback on_staged);

  /// Same movement as stage() but initiated ahead of demand: cache
  /// inserts are tagged so a later demand hit counts as prefetch_useful.
  /// Already-resident shards are skipped silently (no hit/miss counting).
  Status prefetch(ObjectId id, std::size_t dst);

  // ---- failure handling ----

  /// Node crash: its cache and replicas vanish, in-flight fetches into it
  /// are abandoned. Objects with surviving replicas elsewhere stay
  /// available (reads repoint); objects whose last replica died get a
  /// version bump (staling every cached copy) and are returned, ascending
  /// — exactly the set lineage must recompute.
  std::vector<ObjectId> invalidate_node(std::size_t node);

  /// The node rejoins — RAM empty, but its disk tier comes back online
  /// with contents intact — and may receive placements again.
  void restore_node(std::size_t node);

  // ---- durability ----

  /// Snapshots the catalog and truncates the write-ahead log. OK no-op
  /// when the plane is not durable (no storage dir configured).
  Status checkpoint();

  /// Rebuilds objects, replica placements, and disk-tier indexes by
  /// replaying snapshot + log from the configured storage dir. Call on a
  /// freshly constructed plane (same config, new process) before any
  /// put/stage traffic. Producer strings are not durable and come back
  /// empty. FAILED_PRECONDITION when the plane is not durable.
  Result<storage::RecoveryReport> recover();

  // ---- scrub + repair ----

  /// One budgeted scrub step over `node`'s sealed segments. Corrupt
  /// segments are quarantined (their keys are suspect — never served,
  /// never resurrected) and every suspect is repaired immediately from
  /// the healthiest remaining copy: local RAM replica, remote RAM
  /// replica, remote disk — written back to the home disk, or
  /// re-replicated to another node's tier when the home medium is gone.
  /// Suspects with no copy anywhere get the lost-object treatment
  /// (version bump; lineage recomputes them). No-op report when the
  /// storage tier is off.
  storage::ScrubReport scrub_node(std::size_t node);

  /// True while `node`'s tier refuses writes after a media fault
  /// (ENOSPC/EIO). Reads keep working; demotions shed; the plane probes
  /// the medium periodically and clears this automatically.
  [[nodiscard]] bool tier_read_only(std::size_t node) const {
    return node < tier_read_only_.size() && tier_read_only_[node] != 0;
  }

  /// Deterministic scrub/repair event log (same seed + fault plan ⇒
  /// byte-identical sequence, whatever the cache policy).
  [[nodiscard]] const std::vector<std::string>& scrub_journal() const {
    return scrub_journal_;
  }
  /// One node's scrubber; null when the storage tier is disabled.
  [[nodiscard]] storage::Scrubber* scrubber(std::size_t node) {
    return node < scrubbers_.size() ? scrubbers_[node].get() : nullptr;
  }

  // ---- introspection ----

  [[nodiscard]] Cache& cache(std::size_t node) { return *caches_[node]; }
  [[nodiscard]] const Cache& cache(std::size_t node) const {
    return *caches_[node];
  }
  [[nodiscard]] TransferScheduler& transfers() { return xfer_; }
  [[nodiscard]] const PlacementPolicy& placement() const {
    return placement_;
  }
  [[nodiscard]] std::size_t num_nodes() const { return caches_.size(); }
  /// Replica nodes of one shard (empty when unknown), ascending.
  [[nodiscard]] std::vector<std::size_t> replicas(const ShardKey& key) const;
  /// One node's disk tier; null when the storage tier is disabled.
  [[nodiscard]] storage::DiskTier* tier(std::size_t node) {
    return node < tiers_.size() ? tiers_[node].get() : nullptr;
  }
  /// The in-memory catalog mirror (tracks the WAL when durable).
  [[nodiscard]] const storage::Catalog& catalog() const { return catalog_; }
  /// The write-ahead log; null unless the plane is durable.
  [[nodiscard]] storage::CatalogLog* catalog_log() { return log_.get(); }
  [[nodiscard]] PlaneStats stats() const;

  static constexpr std::size_t kNoNode = static_cast<std::size_t>(-1);

 private:
  Status stage_impl(ObjectId id, std::size_t dst, bool is_prefetch,
                    platform::Simulator::Callback on_staged);
  void drop_object_replicas(const DataObject& object);
  /// Stamps (via the WAL when durable, a memory counter otherwise) and
  /// folds one mutation into the catalog mirror. No-op with the tier off.
  void log_apply(storage::LogRecord record);
  /// Cache-eviction subscriber: cost-gated demotion into `node`'s tier.
  void on_cache_evict(std::size_t node, const ShardKey& key, double bytes,
                      double refetch_cost_us);
  /// Re-shelters one quarantined shard from its healthiest live copy;
  /// `issued_us` is when the scrub step found it (repair-latency clock).
  void repair_shard(const ShardKey& key, std::size_t home, double issued_us);
  /// Flags `node`'s tier read-only after a media fault (gauge + stats).
  void note_tier_fault(std::size_t node);
  /// Clears the read-only flag after a successful resume probe.
  void note_tier_resume(std::size_t node);
  /// Lowest-index node whose *online* tier holds `key`; kNoNode if none.
  [[nodiscard]] std::size_t disk_holder(const ShardKey& key) const;
  /// RAM replica or online disk copy exists at this exact version.
  [[nodiscard]] bool shard_alive(const ShardKey& key) const;
  /// Mirrors cache evictions that happened during one insert into the
  /// registry counter (evictions are counted at their cache).
  void mirror_evictions(std::uint64_t before, const Cache& cache);
  [[nodiscard]] bool tracing() const {
    return config_.tracer != nullptr && config_.tracer->enabled();
  }

  platform::Simulator* sim_;
  PlaneConfig config_;
  PlacementPolicy placement_;
  TransferScheduler xfer_;
  std::vector<std::unique_ptr<Cache>> caches_;
  /// Per-node disk tiers (all non-null when config_.storage.enabled()).
  std::vector<std::unique_ptr<storage::DiskTier>> tiers_;
  /// Per-node scrubbers over the tiers' segment stores (same indexing).
  std::vector<std::unique_ptr<storage::Scrubber>> scrubbers_;
  /// 1 while the node's tier is shedding writes after a media fault.
  std::vector<char> tier_read_only_;
  /// Evictions seen per degraded tier (drives the resume-probe cadence).
  std::vector<std::uint64_t> resume_probe_;
  /// Deterministic scrub/repair event log (see scrub_journal()).
  std::vector<std::string> scrub_journal_;
  /// Write-ahead log (only when config_.storage.durable()).
  std::unique_ptr<storage::CatalogLog> log_;
  /// Materialized view of the logged mutations — always consistent with
  /// what replay would rebuild (the E22 "zero divergence" check).
  storage::Catalog catalog_;
  std::uint64_t mem_seq_ = 0;  ///< seq source when there is no WAL
  std::map<ObjectId, DataObject> objects_;
  /// Current-version shard → replica holders, placement order (birth
  /// node first — the preferred fetch source).
  std::map<ShardKey, std::vector<std::size_t>> replicas_;
  /// (shard, node) pairs staged by prefetch and not yet claimed by demand.
  std::set<std::pair<ShardKey, std::size_t>> prefetched_;
  PlaneStats counters_;  ///< lifecycle counters (cache stats live in caches_)

  /// Registry mirrors (null when config_.registry is null).
  obs::Counter* ctr_local_hits_ = nullptr;
  obs::Counter* ctr_cache_hits_ = nullptr;
  obs::Counter* ctr_cache_misses_ = nullptr;
  obs::Counter* ctr_evictions_ = nullptr;
  obs::Counter* ctr_prefetch_issued_ = nullptr;
  obs::Counter* ctr_prefetch_useful_ = nullptr;
  obs::Counter* ctr_tier_hits_ = nullptr;
  obs::Counter* ctr_demotions_ = nullptr;
  obs::Counter* ctr_demote_rejected_ = nullptr;
  obs::Counter* ctr_disk_rescues_ = nullptr;
  obs::Counter* ctr_repairs_ = nullptr;
  obs::Counter* ctr_repair_lost_ = nullptr;
  obs::Histogram* hist_repair_us_ = nullptr;  ///< quarantine → re-sheltered
  /// Per-node "storage.tier.read_only" gauges (1 = shedding writes).
  std::vector<obs::Gauge*> gauge_tier_ro_;
};

}  // namespace everest::data
