// Federated streaming: topics homed across the serving cluster, with
// subscriptions that SURVIVE a primary crash. One StreamEngine per
// topic lives on the topic's home node; homing reuses the federation's
// shard geometry (ShardMap::shard_of over the topic name, preference
// order from the live shard table), so a topic's home is the node whose
// caches are warm for its keys — the same locality rule keyed requests
// follow.
//
// Failover contract (the E24 crash-replay criterion): when a home node
// fail-stops, handle_failover()
//   1. kills the topic's engine (queued-but-unprocessed events are
//      lost from RAM — the WAL has every admitted one),
//   2. detaches its sessions with their acked watermarks intact,
//   3. builds a fresh engine on the next preferred node over the SAME
//      per-topic WAL dir (fail-stop: disks survive, like the data
//      plane's tiers), re-registering operators from the registered
//      factory in the same order,
//   4. replays the WAL from before the minimum acked watermark (trim:
//      events wholly inside acked windows are skipped), and
//   5. re-attaches the sessions — whose acks suppress re-emitted
//      windows, so each subscriber's delivered sequence is
//      byte-identical to an uninterrupted run.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cluster/federation.hpp"
#include "common/status.hpp"
#include "obs/registry.hpp"
#include "storage/env.hpp"
#include "stream/engine.hpp"

namespace everest::stream {

struct FabricConfig {
  /// Homes available for topics (must match the federation's node count
  /// when one is attached).
  std::size_t num_nodes = 4;
  /// Root directory for per-topic WALs ("<root>/<topic>"). Empty =
  /// in-memory only: failover loses window state instead of replaying.
  std::string wal_root;
  /// Engine template (its ingest.wal_dir is overridden per topic).
  EngineConfig engine;
  /// Topic-name hashing geometry (standalone mode; with a federation
  /// attached the federation's own table decides preference order).
  cluster::ShardMapConfig shard_map;
};

struct FabricStats {
  std::uint64_t failovers = 0;        ///< topics re-homed
  std::uint64_t replayed_events = 0;  ///< WAL events folded on failover
  std::uint64_t sessions_moved = 0;   ///< subscriptions re-attached
};

/// Topic-sharded streaming over (optionally) a serving federation.
/// Single-writer facade: ingest() is thread-safe (it lands in engine
/// admission queues); topology mutations (crash/failover/stop) are
/// driver-thread-only, like cluster::Federation's fault hooks.
class StreamFabric {
 public:
  using OperatorFactory = std::function<std::unique_ptr<Operator>()>;

  /// `federation` (borrowed, may be null) supplies liveness and shard
  /// preference; null = standalone mode with fabric-local crash marks.
  explicit StreamFabric(FabricConfig config,
                        cluster::Federation* federation = nullptr,
                        obs::Registry* registry = nullptr,
                        storage::Env* env = nullptr);
  ~StreamFabric();

  StreamFabric(const StreamFabric&) = delete;
  StreamFabric& operator=(const StreamFabric&) = delete;

  /// Registers a topic and the factory that builds its operator (called
  /// once per (re-)homing). Before start(). ALREADY_EXISTS on re-use.
  Status register_topic(const std::string& topic, OperatorFactory factory);

  void start();
  void stop();

  /// Current home node of `topic`; NOT_FOUND for unknown topics.
  [[nodiscard]] Result<std::size_t> home_of(const std::string& topic) const;

  /// Routes the event to its topic's home engine. UNAVAILABLE while the
  /// home is crashed and failover has not run yet.
  Status ingest(Event event);

  /// Subscribes against the topic's current home engine. The session
  /// survives that home's crash (handle_failover re-attaches it).
  Result<std::shared_ptr<StreamSession>> subscribe(const std::string& tenant,
                                                   const std::string& topic,
                                                   SessionConfig config = {});

  /// Standalone-mode fail-stop of `node` (with a federation attached,
  /// call Federation::crash and then handle_failover directly).
  void crash(std::size_t node);
  [[nodiscard]] bool node_crashed(std::size_t node) const;

  /// Re-homes every topic whose home is dead: kill, detach, rebuild on
  /// the next live preference, WAL-replay past the acked horizon,
  /// re-attach. Safe to call when nothing is dead (no-op). Returns the
  /// topics moved.
  std::vector<std::string> handle_failover();

  /// Blocks until every live engine folded its admitted events.
  void flush();

  [[nodiscard]] const FabricStats& stats() const { return stats_; }

 private:
  struct Topic {
    OperatorFactory factory;
    std::size_t home = 0;
    std::unique_ptr<StreamEngine> engine;
  };

  /// Preference-ordered candidate homes for `topic`, live-first.
  [[nodiscard]] std::vector<std::size_t> candidates(
      const std::string& topic) const;
  [[nodiscard]] std::unique_ptr<StreamEngine> build_engine(
      const std::string& topic, const OperatorFactory& factory) const;

  FabricConfig config_;
  cluster::Federation* federation_;
  obs::Registry* registry_;
  storage::Env* env_;

  std::map<std::string, Topic> topics_;
  std::set<std::size_t> crashed_;  ///< standalone-mode fail marks
  bool started_ = false;
  FabricStats stats_;
};

}  // namespace everest::stream
