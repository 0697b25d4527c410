#include "cluster/federation.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "common/rng.hpp"

namespace everest::cluster {

Federation::Federation(FederationOptions options)
    : options_(std::move(options)),
      epoch_(std::chrono::steady_clock::now()) {
  if (options_.num_nodes < 1) options_.num_nodes = 1;

  std::vector<std::string> names;
  names.reserve(options_.num_nodes);
  for (std::size_t i = 0; i < options_.num_nodes; ++i) {
    names.push_back("node" + std::to_string(i));
  }
  membership_ =
      std::make_unique<Membership>(std::move(names), options_.membership);
  shard_map_ =
      std::make_unique<ShardMap>(options_.num_nodes, options_.shard_map);
  fabric_ =
      std::make_unique<ForwardFabric>(options_.num_nodes, options_.interconnect);
  home_table_ = shard_map_->table();  // version 0: all nodes healthy

  knowledge_.reserve(options_.num_nodes);
  servers_.reserve(options_.num_nodes);
  crashed_.reserve(options_.num_nodes);
  for (std::size_t i = 0; i < options_.num_nodes; ++i) {
    knowledge_.push_back(std::make_unique<runtime::KnowledgeBase>());
    serve::ServerOptions node_opts = options_.node;
    if (!options_.storage_dir.empty()) {
      // One WAL per node: every cold input staging is appended (as a
      // kPlace record — "this key's bytes now live in node i's RAM"), so
      // a restart can replay the node back to a warm cache instead of
      // re-paying every input transfer.
      wals_.push_back(std::make_unique<storage::CatalogLog>(
          options_.storage_dir + "/node" + std::to_string(i),
          storage::LogConfig{}, &registry_));
      storage::CatalogLog* wal = wals_.back().get();
      node_opts.on_input_staged = [this, wal](const data::ShardKey& key,
                                              double bytes, double) {
        // Stamp the record with the key's *home* primary under the
        // all-healthy table, not the node it landed on: while a node is
        // down its keyed traffic fails over and stages elsewhere, and
        // on restart() the owner finds those keys in the survivors'
        // logs by this stamp (hinted handoff).
        const std::uint32_t shard = ShardMap::shard_of_object(
            key.object, options_.shard_map.num_shards,
            options_.shard_map.salt);
        const auto& owners = home_table_->replicas[shard];
        const std::uint64_t home = owners.empty() ? 0 : owners.front();
        (void)wal->append({storage::LogRecordType::kPlace, 0, key.object,
                           key.shard, key.version, home, bytes});
      };
    }
    servers_.push_back(
        std::make_unique<serve::Server>(node_opts, knowledge_[i].get()));
    crashed_.push_back(std::make_unique<std::atomic<bool>>(false));
  }

  router_ = std::make_unique<ClusterRouter>(
      membership_.get(), shard_map_.get(),
      [this](std::size_t node) { return servers_[node]->queue_depth(); },
      options_.seed);

  submitted_ = registry_.counter("cluster.submitted");
  keyed_ = registry_.counter("cluster.keyed");
  keyed_local_ = registry_.counter("cluster.keyed_data_local");
  route_kind_[0] = registry_.counter("cluster.route", {{"kind", "primary"}});
  route_kind_[1] = registry_.counter("cluster.route", {{"kind", "failover"}});
  route_kind_[2] = registry_.counter("cluster.route", {{"kind", "no_owner"}});
  route_kind_[3] = registry_.counter("cluster.route", {{"kind", "p2c"}});
  ingress_local_ = registry_.counter("cluster.ingress_local");
  forwarded_ = registry_.counter("cluster.forwarded");
  refused_retry_ = registry_.counter("cluster.refused_retries");
  unroutable_ = registry_.counter("cluster.unroutable");
  failovers_ = registry_.counter("cluster.failovers");
  rejoins_ = registry_.counter("cluster.rejoins");
  rebuilds_ = registry_.counter("cluster.rebuilds");
  warm_restored_ = registry_.counter("cluster.warm_restored_entries");
  hinted_handoff_ = registry_.counter("cluster.hinted_handoff_entries");
  warm_restore_us_ = registry_.histogram("cluster.warm_restore_us");
  // shards_moved_last / shard_imbalance are node-local instantaneous
  // readings with no meaningful cross-node aggregate — they stay
  // kLastWrite, which RegistrySnapshot::merge deliberately drops.
  // last_detection_us is a watermark: merged value = slowest detector.
  shards_moved_ = registry_.gauge("cluster.shards_moved_last");
  imbalance_ = registry_.gauge("cluster.shard_imbalance");
  last_detection_ =
      registry_.gauge("cluster.last_detection_us", obs::GaugeKind::kMax);
  hop_us_ = registry_.histogram("cluster.hop_us");

  imbalance_->set(shard_map_->table()->primary_imbalance());
}

Federation::~Federation() { stop(); }

double Federation::now_us() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
             .count() /
         1e3;
}

Status Federation::register_endpoint(const serve::Endpoint& endpoint) {
  if (running_.load(std::memory_order_acquire)) {
    return FailedPrecondition("cannot register endpoints while serving");
  }
  for (auto& server : servers_) {
    EVEREST_RETURN_IF_ERROR(server->register_endpoint(endpoint));
  }
  return OkStatus();
}

Status Federation::start() {
  if (running_.exchange(true)) {
    return FailedPrecondition("federation already started");
  }
  for (auto& server : servers_) {
    const Status started = server->start();
    if (!started.ok()) {
      running_.store(false);
      return started;
    }
  }
  // Prime the detectors so a node that dies immediately after start is
  // still detected against a calibrated model.
  const double now = now_us();
  for (std::size_t i = 0; i < options_.num_nodes; ++i) {
    membership_->heartbeat(i, now);
  }
  {
    std::lock_guard<std::mutex> lock(pump_mu_);
    pump_running_ = true;
  }
  pump_ = std::thread([this] { pump_loop(); });
  EVEREST_LOG(kInfo, "cluster")
      << "federation started: " << options_.num_nodes << " nodes, "
      << options_.shard_map.num_shards << " shards, replication "
      << options_.shard_map.replication;
  return OkStatus();
}

std::size_t Federation::pick_ingress(std::uint64_t seed) const {
  SplitMix64 sm(options_.seed ^ (0x9E3779B97F4A7C15ULL * (seed + 1)));
  return static_cast<std::size_t>(sm.next() % options_.num_nodes);
}

Status Federation::submit(serve::Request request,
                          serve::ResponseCallback on_done) {
  if (!running_.load(std::memory_order_acquire)) {
    return FailedPrecondition("federation is not running");
  }
  submitted_->inc();

  // Client affinity: a deterministic ingress endpoint per client seed;
  // a client whose endpoint is unreachable rotates through the endpoint
  // list like a real client library would.
  std::size_t ingress = pick_ingress(request.seed);
  bool reachable = false;
  for (std::size_t k = 0; k < options_.num_nodes; ++k) {
    const std::size_t candidate = (ingress + k) % options_.num_nodes;
    if (!crashed(candidate)) {
      if (k > 0) refused_retry_->inc();
      ingress = candidate;
      reachable = true;
      break;
    }
  }
  if (!reachable) {
    unroutable_->inc();
    return Unavailable("every cluster node is unreachable");
  }

  if (!request.data_key.empty()) keyed_->inc();
  const std::string_view route_key =
      options_.locality_routing ? std::string_view(request.data_key)
                                : std::string_view();

  obs::Tracer* tracer = options_.tracer;
  const bool tracing = tracer != nullptr && tracer->enabled();

  std::size_t exclude = ClusterRouter::kNone;
  for (std::size_t attempt = 0; attempt < options_.num_nodes; ++attempt) {
    auto routed = router_->route(route_key, exclude);
    if (!routed.ok()) {
      unroutable_->inc();
      return routed.status();
    }
    const RouteDecision decision = *routed;
    if (crashed(decision.node)) {
      // Connection refused ahead of failure detection: re-route around
      // the dead node (next replica for keyed, fresh pair for keyless).
      refused_retry_->inc();
      exclude = decision.node;
      continue;
    }

    route_kind_[static_cast<int>(decision.kind)]->inc();
    if (!request.data_key.empty() && decision.data_local()) {
      keyed_local_->inc();
    }

    const std::size_t target = decision.node;

    // One federation-wide trace per ingress request: the root
    // "federation.request" span (emitted when the outcome is known)
    // parents the forward hop, the target node's serve chain (via
    // TraceContext propagation on the request), and the reply hop — the
    // stitched cross-node chain E25 validates root-reachability on.
    std::uint64_t trace_id = 0;
    std::uint64_t root_span = 0;
    double t_root0 = 0.0;
    if (tracing) {
      trace_id = tracer->next_id();
      root_span = tracer->next_id();
      t_root0 = tracer->wall_now_us();
      request.trace = obs::TraceContext{trace_id, root_span};
    }

    double forward_us = 0.0;
    if (target != ingress) {
      forwarded_->inc();
      forward_us = fabric_->hop_us(ingress, target, options_.forward_bytes);
      hop_us_->record(forward_us);
      if (tracing) {
        const double t0 = tracer->wall_now_us();
        tracer->span(obs::TimeDomain::kWall, trace_id, tracer->next_id(),
                     root_span, t0, t0 + forward_us, obs::kAutoTrack, "hop",
                     "cluster",
                     {{"src", membership_->name(ingress)},
                      {"dst", membership_->name(target)},
                      {"kind", std::string(to_string(decision.kind))},
                      {"bytes", std::to_string(
                           static_cast<long>(options_.forward_bytes))}});
      }
    } else {
      ingress_local_->inc();
    }

    serve::ResponseCallback cb;
    if (target != ingress) {
      // The reply pays the return hop at completion time, so it sees the
      // fabric contention of *that* moment, not of admission.
      cb = [this, done = std::move(on_done), target, ingress, forward_us,
            trace_id, root_span, t_root0, tracer,
            tracing](const serve::Response& response) {
        const double reply_us =
            fabric_->hop_us(target, ingress, options_.reply_bytes);
        hop_us_->record(reply_us);
        if (tracing) {
          const double t0 = tracer->wall_now_us();
          tracer->span(obs::TimeDomain::kWall, trace_id, tracer->next_id(),
                       root_span, t0, t0 + reply_us, obs::kAutoTrack, "hop",
                       "cluster",
                       {{"src", membership_->name(target)},
                        {"dst", membership_->name(ingress)},
                        {"kind", "reply"}});
          tracer->span(obs::TimeDomain::kWall, trace_id, root_span, 0,
                       t_root0, t0 + reply_us, obs::kAutoTrack,
                       "federation.request", "cluster",
                       {{"ingress", membership_->name(ingress)},
                        {"target", membership_->name(target)}});
        }
        if (options_.charge_hops_in_latency) {
          serve::Response adjusted = response;
          adjusted.latency_us += forward_us + reply_us;
          done(adjusted);
        } else {
          done(response);
        }
      };
    } else if (tracing) {
      // Local requests get the same root so every ingress request is
      // exactly one root-reachable chain regardless of placement.
      cb = [this, done = std::move(on_done), ingress, trace_id, root_span,
            t_root0, tracer](const serve::Response& response) {
        tracer->span(obs::TimeDomain::kWall, trace_id, root_span, 0, t_root0,
                     tracer->wall_now_us(), obs::kAutoTrack,
                     "federation.request", "cluster",
                     {{"ingress", membership_->name(ingress)},
                      {"target", membership_->name(ingress)}});
        done(response);
      };
    } else {
      cb = std::move(on_done);
    }
    // Admission backpressure at the target (queue full, draining) is
    // surfaced end-to-end: bouncing to another node would break keyed
    // locality and hide the overload from the caller's retry policy.
    const Status admitted =
        servers_[target]->submit(std::move(request), std::move(cb));
    if (!admitted.ok() && tracing) {
      // Rejected at admission: the callback never fires, so close the
      // root here — the already-emitted forward hop must not dangle.
      tracer->span(obs::TimeDomain::kWall, trace_id, root_span, 0, t_root0,
                   tracer->wall_now_us(), obs::kAutoTrack,
                   "federation.request", "cluster",
                   {{"ingress", membership_->name(ingress)},
                    {"target", membership_->name(target)},
                    {"outcome", "rejected"}});
    }
    return admitted;
  }

  unroutable_->inc();
  return Unavailable("no reachable replica after retries");
}

void Federation::drain() {
  for (auto& server : servers_) server->drain();
}

void Federation::stop() {
  if (!running_.exchange(false)) return;
  {
    std::lock_guard<std::mutex> lock(pump_mu_);
    pump_running_ = false;
  }
  pump_wake_.notify_all();
  if (pump_.joinable()) pump_.join();
  for (auto& server : servers_) server->drain_gracefully();
  for (auto& server : servers_) server->stop();
  EVEREST_LOG(kInfo, "cluster") << "federation stopped";
}

void Federation::crash(std::size_t node) {
  if (node >= options_.num_nodes) return;
  crashed_[node]->store(true, std::memory_order_release);
  // Process death loses RAM: the staged-input cache dies with it. The
  // node's WAL (when configured) survives on disk — that is what
  // restart() replays. Without cold_restart_cache the crash stays a
  // NIC-level fail-stop and RAM survives (the pre-storage model).
  if (options_.cold_restart_cache) servers_[node]->clear_input_cache();
  if (options_.tracer != nullptr && options_.tracer->enabled()) {
    options_.tracer->instant(obs::TimeDomain::kWall, 0,
                             options_.tracer->wall_now_us(), obs::kAutoTrack,
                             "crash", "cluster",
                             {{"node", membership_->name(node)}});
  }
  if (options_.flight_recorder != nullptr) {
    // Black-box dump: capture the spans and rollups leading up to the
    // injected fault (debounced inside the recorder).
    (void)options_.flight_recorder->trigger(
        "fault.crash", {{"node", membership_->name(node)}});
  }
  EVEREST_LOG(kWarn, "cluster")
      << membership_->name(node) << " crashed (fail-stop at the network)";
}

void Federation::restart(std::size_t node) {
  if (node >= options_.num_nodes) return;
  if (options_.cold_restart_cache && node < wals_.size()) {
    // Warm restart: replay the node's staging log in append order — the
    // cache's own capacity bound keeps the most recently staged keys, so
    // the node rejoins roughly as warm as it died.
    const auto t0 = std::chrono::steady_clock::now();
    wals_[node]->sync();
    std::uint64_t restored = 0;
    storage::CatalogLog::replay_records(
        wals_[node]->dir(), [&](const storage::LogRecord& rec) {
          if (rec.type != storage::LogRecordType::kPlace) return;
          servers_[node]->warm_input(rec.key(), rec.bytes);
          ++restored;
        });
    // Hinted handoff: while this node was down, its keyed traffic
    // failed over and staged inputs on the surviving replicas — each
    // stamped with this node as home. Pull those entries back so the
    // node rejoins warm for keys it never saw itself.
    std::uint64_t handed = 0;
    for (std::size_t peer = 0; peer < wals_.size(); ++peer) {
      if (peer == node) continue;
      wals_[peer]->sync();
      storage::CatalogLog::replay_records(
          wals_[peer]->dir(), [&](const storage::LogRecord& rec) {
            if (rec.type != storage::LogRecordType::kPlace) return;
            if (rec.node != node) return;
            servers_[node]->warm_input(rec.key(), rec.bytes);
            ++handed;
          });
    }
    const double wall_us =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count() /
        1e3;
    warm_restored_->inc(restored);
    hinted_handoff_->inc(handed);
    warm_restore_us_->record(wall_us);
    EVEREST_LOG(kInfo, "cluster")
        << membership_->name(node) << " warm restart: " << restored
        << " cache entries replayed, " << handed
        << " handed off from peers, in " << wall_us << " us";
  }
  crashed_[node]->store(false, std::memory_order_release);
  servers_[node]->resume_admission();
  EVEREST_LOG(kInfo, "cluster") << membership_->name(node) << " restarting";
}

void Federation::pump_loop() {
  std::vector<double> last_hb(options_.num_nodes, -1e18);
  const auto period = std::chrono::microseconds(
      static_cast<std::int64_t>(options_.pump_period_us));
  std::unique_lock<std::mutex> lock(pump_mu_);
  while (pump_running_) {
    lock.unlock();
    const auto next_tick = std::chrono::steady_clock::now() + period;
    const double now = now_us();
    for (std::size_t i = 0; i < options_.num_nodes; ++i) {
      if (crashed(i)) continue;
      if (now - last_hb[i] >= options_.membership.heartbeat_interval_us) {
        membership_->heartbeat(i, now);
        last_hb[i] = now;
      }
    }
    const std::vector<Transition> transitions = membership_->update(now);
    bool rebuild = false;
    const char* reason = "";
    for (const Transition& t : transitions) {
      if (t.to == resilience::Health::kDead) {
        failovers_->inc();
        last_detection_->set(t.at_us);
        rebuild = true;
        reason = "failover";
        EVEREST_LOG(kWarn, "cluster")
            << membership_->name(t.node) << " declared dead at "
            << static_cast<long>(t.at_us) << " us; failing over its shards";
      } else if (t.from == resilience::Health::kDead) {
        rejoins_->inc();
        rebuild = true;
        reason = "rejoin";
        EVEREST_LOG(kInfo, "cluster")
            << membership_->name(t.node) << " rejoined; rebalancing";
      }
    }
    if (rebuild) rebuild_shard_map(reason);
    lock.lock();
    pump_wake_.wait_until(lock, next_tick, [this] { return !pump_running_; });
  }
}

void Federation::rebuild_shard_map(const char* reason) {
  const std::size_t moved = shard_map_->rebuild(*membership_->view());
  rebuilds_->inc();
  shards_moved_->set(static_cast<double>(moved));
  imbalance_->set(shard_map_->table()->primary_imbalance());
  if (options_.tracer != nullptr && options_.tracer->enabled()) {
    options_.tracer->instant(
        obs::TimeDomain::kWall, 0, options_.tracer->wall_now_us(),
        obs::kAutoTrack, "shard-map-rebuild", "cluster",
        {{"reason", reason}, {"moved", std::to_string(moved)}});
  }
}

FederationStats Federation::stats() const {
  FederationStats out;
  out.submitted = submitted_->value();
  out.keyed = keyed_->value();
  out.keyed_data_local = keyed_local_->value();
  out.routed_primary = route_kind_[0]->value();
  out.routed_failover = route_kind_[1]->value();
  out.routed_no_owner = route_kind_[2]->value();
  out.routed_p2c = route_kind_[3]->value();
  out.ingress_local = ingress_local_->value();
  out.forwarded = forwarded_->value();
  out.refused_retries = refused_retry_->value();
  out.unroutable = unroutable_->value();
  out.failovers = failovers_->value();
  out.rejoins = rejoins_->value();
  out.rebuilds = rebuilds_->value();
  out.warm_restored_entries = warm_restored_->value();
  out.hinted_handoff_entries = hinted_handoff_->value();
  out.shards_moved_last = shards_moved_->value();
  out.shard_imbalance = imbalance_->value();
  out.last_detection_us = last_detection_->value();
  const obs::HistogramSnapshot hops = hop_us_->snapshot();
  out.hops = hops.count;
  out.hop_mean_us = hops.mean();
  out.hop_p99_us = hops.percentile(99.0);
  return out;
}

serve::SubmitFn Federation::submit_fn() {
  return [this](serve::Request request, serve::ResponseCallback on_done) {
    return submit(std::move(request), std::move(on_done));
  };
}

serve::DrainFn Federation::drain_fn() {
  return [this] { drain(); };
}

}  // namespace everest::cluster
