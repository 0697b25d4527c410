// Tests for the serving federation: membership suspect/dead/rejoin edges
// on virtual time, shard-map determinism and minimal movement across
// failovers, routing determinism (same seed + same membership events =>
// byte-identical decision logs, swept over replication factors), and
// end-to-end federation behaviour — keyed locality, crash/failover/rejoin
// availability, graceful drain. Wall-clock waits poll with generous
// timeouts: CI may run on one core, so tests assert accounting and
// transitions, not speed.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cluster/federation.hpp"
#include "cluster/membership.hpp"
#include "cluster/router.hpp"
#include "cluster/shard_map.hpp"

namespace everest::cluster {
namespace {

using resilience::Health;

/// Fast-detection config for virtual-time membership tests: mean
/// heartbeat 2 ms, suspect at phi 2 (~9.2 ms silence), dead at phi 4
/// (~18.4 ms silence).
MembershipConfig fast_membership() {
  MembershipConfig config;
  config.heartbeat_interval_us = 2'000.0;
  config.suspect_phi = 2.0;
  config.dead_phi = 4.0;
  return config;
}

std::vector<std::string> node_names(std::size_t n) {
  std::vector<std::string> names;
  for (std::size_t i = 0; i < n; ++i) names.push_back("n" + std::to_string(i));
  return names;
}

/// A cheap deterministic endpoint (value = seed % 1000), as in test_serve.
serve::Endpoint test_endpoint(const std::string& kernel = "test_kernel") {
  serve::Endpoint ep;
  ep.kernel = kernel;
  compiler::Variant v;
  v.id = kernel + "-cpu";
  v.kernel = kernel;
  v.target = compiler::TargetKind::kCpu;
  v.latency_us = 50.0;
  v.energy_uj = 100.0;
  ep.variants = {v};
  ep.handler = [](const serve::Batch& batch, std::vector<double>* values) {
    values->clear();
    for (const serve::PendingRequest& pending : batch.requests) {
      values->push_back(static_cast<double>(pending.request.seed % 1000));
    }
    return OkStatus();
  };
  return ep;
}

// ----------------------------------------------------------- membership

TEST(Membership, RegularHeartbeatsStayHealthy) {
  Membership membership(node_names(3), fast_membership());
  double now = 0.0;
  for (int beat = 0; beat < 10; ++beat) {
    for (std::size_t i = 0; i < 3; ++i) membership.heartbeat(i, now);
    EXPECT_TRUE(membership.update(now).empty());
    now += 2'000.0;
  }
  auto view = membership.view();
  EXPECT_EQ(view->epoch, 0u);
  EXPECT_EQ(view->alive_count(), 3u);
}

TEST(Membership, SilenceEscalatesSuspectThenDead) {
  Membership membership(node_names(2), fast_membership());
  double now = 0.0;
  for (int beat = 0; beat < 5; ++beat) {
    membership.heartbeat(0, now);
    membership.heartbeat(1, now);
    (void)membership.update(now);
    now += 2'000.0;
  }
  const double last_beat = now - 2'000.0;
  // Node 1 goes silent; node 0 keeps beating. phi = 0.434 * silence /
  // mean: suspect (phi 2) needs ~9.2 ms of silence, dead (phi 4) ~18.4 ms.
  for (double t = last_beat + 2'000.0; t <= last_beat + 12'000.0;
       t += 2'000.0) {
    membership.heartbeat(0, t);
  }

  auto t1 = membership.update(last_beat + 12'000.0);
  ASSERT_EQ(t1.size(), 1u);
  EXPECT_EQ(t1[0].node, 1u);
  EXPECT_EQ(t1[0].from, Health::kHealthy);
  EXPECT_EQ(t1[0].to, Health::kSuspected);
  auto view = membership.view();
  EXPECT_EQ(view->epoch, 1u);
  EXPECT_FALSE(view->is_routable(1));  // suspects stop receiving work
  EXPECT_EQ(view->alive_count(), 1u);

  for (double t = last_beat + 14'000.0; t <= last_beat + 25'000.0;
       t += 2'000.0) {
    membership.heartbeat(0, t);
  }
  auto t2 = membership.update(last_beat + 25'000.0);
  ASSERT_EQ(t2.size(), 1u);
  EXPECT_EQ(t2[0].to, Health::kDead);
  EXPECT_EQ(membership.view()->epoch, 2u);
}

TEST(Membership, DetectionIntervalBoundsSilenceToDead) {
  Membership membership(node_names(1), fast_membership());
  double now = 0.0;
  for (int beat = 0; beat < 8; ++beat) {
    membership.heartbeat(0, now);
    (void)membership.update(now);
    now += 2'000.0;
  }
  const double last_beat = now - 2'000.0;
  // At 1.1x the documented bound the node must be dead (EWMA mean can sit
  // slightly below the configured interval, never meaningfully above).
  const double bound = membership.detection_interval_us();
  (void)membership.update(last_beat + 1.1 * bound);
  EXPECT_EQ(membership.view()->health[0], Health::kDead);
}

TEST(Membership, RejoinRevivesAndDetectorStaysCalibrated) {
  Membership membership(node_names(2), fast_membership());
  double now = 0.0;
  for (int beat = 0; beat < 5; ++beat) {
    membership.heartbeat(0, now);
    membership.heartbeat(1, now);
    (void)membership.update(now);
    now += 2'000.0;
  }
  // Long outage on node 1 (100x the detection interval).
  now += 100.0 * membership.detection_interval_us();
  membership.heartbeat(0, now);
  (void)membership.update(now);
  ASSERT_EQ(membership.view()->health[1], Health::kDead);

  // Rejoin: first heartbeat revives; the outage gap must NOT enter the
  // inter-arrival EWMA (heartbeat() resets a dead node's detector).
  membership.heartbeat(1, now);
  auto revived = membership.update(now);
  ASSERT_EQ(revived.size(), 1u);
  EXPECT_EQ(revived[0].from, Health::kDead);
  EXPECT_EQ(revived[0].to, Health::kHealthy);

  for (int beat = 0; beat < 5; ++beat) {
    now += 2'000.0;
    membership.heartbeat(0, now);
    membership.heartbeat(1, now);
    (void)membership.update(now);
  }
  // A poisoned mean (outage folded in) would put the next detection at
  // ~20x the bound; a calibrated one declares dead within ~1.1x.
  const double silent_from = now;
  (void)membership.update(silent_from + 1.5 * membership.detection_interval_us());
  EXPECT_EQ(membership.view()->health[1], Health::kDead)
      << "rejoin poisoned the inter-arrival model";
}

TEST(Membership, ViewsAreImmutableSnapshots) {
  Membership membership(node_names(2), fast_membership());
  double now = 0.0;
  for (int beat = 0; beat < 5; ++beat) {
    membership.heartbeat(0, now);
    membership.heartbeat(1, now);
    (void)membership.update(now);
    now += 2'000.0;
  }
  auto before = membership.view();
  (void)membership.update(now + 50'000.0);  // both silent -> dead
  EXPECT_EQ(before->alive_count(), 2u);     // old snapshot unchanged
  EXPECT_EQ(membership.view()->alive_count(), 0u);
  EXPECT_GT(membership.view()->epoch, before->epoch);
}

// ------------------------------------------------------------ shard map

MembershipView healthy_view(std::size_t n, std::uint64_t epoch = 0) {
  MembershipView view;
  view.epoch = epoch;
  view.health.assign(n, Health::kHealthy);
  for (std::size_t i = 0; i < n; ++i) view.routable.push_back(i);
  return view;
}

TEST(ShardMap, DeterministicAcrossInstances) {
  ShardMapConfig config;
  config.num_shards = 32;
  config.replication = 2;
  ShardMap a(5, config);
  ShardMap b(5, config);
  EXPECT_EQ(a.table()->replicas, b.table()->replicas);
  // Same view sequence => same tables.
  MembershipView view = healthy_view(5, 1);
  view.health[2] = Health::kDead;
  view.routable = {0, 1, 3, 4};
  EXPECT_EQ(a.rebuild(view), b.rebuild(view));
  EXPECT_EQ(a.table()->replicas, b.table()->replicas);
  EXPECT_EQ(a.table()->version, 1u);
}

TEST(ShardMap, EveryShardFullyReplicatedWhenHealthy) {
  ShardMapConfig config;
  config.num_shards = 64;
  config.replication = 3;
  ShardMap map(4, config);
  auto table = map.table();
  for (const auto& replicas : table->replicas) {
    ASSERT_EQ(replicas.size(), 3u);
    std::set<std::size_t> distinct(replicas.begin(), replicas.end());
    EXPECT_EQ(distinct.size(), 3u);  // replicas on distinct nodes
  }
  EXPECT_LT(table->primary_imbalance(), 2.0);
}

TEST(ShardMap, ReplicationCappedByHealthyNodes) {
  ShardMapConfig config;
  config.num_shards = 16;
  config.replication = 3;
  ShardMap map(4, config);
  MembershipView view = healthy_view(4, 1);
  view.health[0] = Health::kDead;
  view.health[1] = Health::kDead;
  view.routable = {2, 3};
  map.rebuild(view);
  for (const auto& replicas : map.table()->replicas) {
    EXPECT_EQ(replicas.size(), 2u);  // only two hosts remain
  }
}

TEST(ShardMap, FailoverMovesOnlyTheDeadNodesShards) {
  ShardMapConfig config;
  config.num_shards = 64;
  config.replication = 2;
  ShardMap map(6, config);
  auto before = map.table();

  MembershipView view = healthy_view(6, 1);
  const std::size_t dead = 2;
  view.health[dead] = Health::kDead;
  view.routable = {0, 1, 3, 4, 5};
  const std::size_t moved = map.rebuild(view);
  auto after = map.table();

  EXPECT_GT(moved, 0u);
  for (std::uint32_t s = 0; s < config.num_shards; ++s) {
    const auto& old_replicas = before->replicas[s];
    const auto& new_replicas = after->replicas[s];
    const bool held_dead =
        std::find(old_replicas.begin(), old_replicas.end(), dead) !=
        old_replicas.end();
    if (!held_dead) {
      // Rendezvous minimality: shards the dead node never held are
      // byte-identical across the rebuild.
      EXPECT_EQ(old_replicas, new_replicas) << "shard " << s;
    } else {
      // The dead node is gone; survivors keep their relative order.
      std::vector<std::size_t> expectation;
      for (std::size_t node : old_replicas) {
        if (node != dead) expectation.push_back(node);
      }
      ASSERT_GE(new_replicas.size(), expectation.size());
      for (std::size_t r = 0; r < expectation.size(); ++r) {
        EXPECT_EQ(new_replicas[r], expectation[r]) << "shard " << s;
      }
      EXPECT_EQ(std::find(new_replicas.begin(), new_replicas.end(), dead),
                new_replicas.end());
    }
  }
}

TEST(ShardMap, ShardOfIsStableAndMatchesStaticForm) {
  ShardMapConfig config;
  config.num_shards = 32;
  ShardMap map(4, config);
  for (int i = 0; i < 100; ++i) {
    const std::string key = "obj" + std::to_string(i);
    const std::uint32_t shard = map.shard_of(key);
    EXPECT_LT(shard, 32u);
    EXPECT_EQ(shard, ShardMap::shard_of(key, 32, config.salt));
  }
}

// --------------------------------------------------------------- router

struct RouterRig {
  Membership membership;
  ShardMap shard_map;
  ClusterRouter router;

  RouterRig(std::size_t nodes, int replication, std::uint64_t seed,
            ClusterRouter::DepthProbe depth = nullptr)
      : membership(node_names(nodes), fast_membership()),
        shard_map(nodes,
                  ShardMapConfig{/*num_shards=*/32, replication,
                                 /*salt=*/0x5eedULL}),
        router(&membership, &shard_map, std::move(depth), seed) {}

  void beat_all(double now, std::size_t except = static_cast<std::size_t>(-1)) {
    for (std::size_t i = 0; i < membership.size(); ++i) {
      if (i != except) membership.heartbeat(i, now);
    }
    (void)membership.update(now);
  }
};

TEST(Router, KeyedRoutesToPrimaryWhenHealthy) {
  RouterRig rig(4, 2, /*seed=*/7);
  rig.beat_all(0.0);
  auto table = rig.shard_map.table();
  for (int i = 0; i < 50; ++i) {
    const std::string key = "obj" + std::to_string(i);
    auto decision = rig.router.route(key);
    ASSERT_TRUE(decision.ok());
    EXPECT_EQ(decision->kind, RouteKind::kPrimary);
    EXPECT_TRUE(decision->data_local());
    EXPECT_EQ(decision->node, table->replicas[decision->shard][0]);
    EXPECT_EQ(decision->shard, rig.shard_map.shard_of(key));
  }
}

TEST(Router, SuspectedPrimaryFailsOverWithoutRebuild) {
  RouterRig rig(4, 2, /*seed=*/7);
  double now = 0.0;
  for (int beat = 0; beat < 5; ++beat) {
    rig.beat_all(now);
    now += 2'000.0;
  }
  // Find a key whose primary is node 0, then silence node 0 past the
  // suspect threshold (no shard-map rebuild happens).
  auto table = rig.shard_map.table();
  std::string victim_key;
  for (int i = 0; i < 200 && victim_key.empty(); ++i) {
    const std::string key = "obj" + std::to_string(i);
    if (table->replicas[rig.shard_map.shard_of(key)][0] == 0) victim_key = key;
  }
  ASSERT_FALSE(victim_key.empty());
  rig.beat_all(now - 2'000.0 + 12'000.0, /*except=*/0);
  ASSERT_EQ(rig.membership.view()->health[0], Health::kSuspected);

  auto decision = rig.router.route(victim_key);
  ASSERT_TRUE(decision.ok());
  EXPECT_EQ(decision->kind, RouteKind::kFailover);
  EXPECT_TRUE(decision->data_local());
  EXPECT_EQ(decision->node,
            table->replicas[rig.shard_map.shard_of(victim_key)][1]);
  EXPECT_EQ(decision->map_version, table->version);  // no rebuild happened
}

TEST(Router, ExcludeReroutesAroundRefusedNode) {
  RouterRig rig(4, 2, /*seed=*/7);
  rig.beat_all(0.0);
  auto table = rig.shard_map.table();
  const std::string key = "obj0";
  const auto& replicas = table->replicas[rig.shard_map.shard_of(key)];
  auto decision = rig.router.route(key, /*exclude=*/replicas[0]);
  ASSERT_TRUE(decision.ok());
  EXPECT_EQ(decision->node, replicas[1]);
  EXPECT_EQ(decision->kind, RouteKind::kFailover);

  // Keyless: the excluded node is never picked.
  for (int i = 0; i < 100; ++i) {
    auto keyless = rig.router.route("", /*exclude=*/2);
    ASSERT_TRUE(keyless.ok());
    EXPECT_NE(keyless->node, 2u);
    EXPECT_EQ(keyless->kind, RouteKind::kPowerOfTwo);
  }
}

TEST(Router, NoHealthyReplicaFallsBackToBalancedNoOwner) {
  RouterRig rig(3, 1, /*seed=*/7);
  double now = 0.0;
  for (int beat = 0; beat < 5; ++beat) {
    rig.beat_all(now);
    now += 2'000.0;
  }
  auto table = rig.shard_map.table();
  const std::string key = "obj3";
  const std::size_t owner = table->replicas[rig.shard_map.shard_of(key)][0];
  rig.beat_all(now - 2'000.0 + 12'000.0, /*except=*/owner);
  ASSERT_NE(rig.membership.view()->health[owner], Health::kHealthy);

  auto decision = rig.router.route(key);
  ASSERT_TRUE(decision.ok());
  EXPECT_EQ(decision->kind, RouteKind::kNoOwner);
  EXPECT_FALSE(decision->data_local());
  EXPECT_NE(decision->node, owner);
}

TEST(Router, UnavailableWhenNoNodeRoutable) {
  RouterRig rig(2, 1, /*seed=*/7);
  double now = 0.0;
  for (int beat = 0; beat < 5; ++beat) {
    rig.beat_all(now);
    now += 2'000.0;
  }
  (void)rig.membership.update(now + 100'000.0);  // everyone silent
  ASSERT_EQ(rig.membership.view()->alive_count(), 0u);
  auto keyed = rig.router.route("obj1");
  EXPECT_EQ(keyed.status().code(), StatusCode::kUnavailable);
  auto keyless = rig.router.route("");
  EXPECT_EQ(keyless.status().code(), StatusCode::kUnavailable);
}

/// Replays one scripted scenario (steady traffic, node 1 dies, failover
/// rebuild, node 1 rejoins, rebalance rebuild) and serializes every
/// decision. Determinism = two independent rigs produce byte-identical
/// logs for any replication factor.
std::string scripted_decision_log(int replication) {
  // Deterministic depth probe standing in for live queue depths.
  auto depth = [](std::size_t node) { return (node * 7 + 3) % 5; };
  RouterRig rig(5, replication, /*seed=*/1234, depth);
  std::string log;
  auto route_mix = [&](int salt) {
    for (int i = 0; i < 40; ++i) {
      auto keyed = rig.router.route("obj" + std::to_string((i * 13 + salt) % 64));
      log += keyed.ok() ? keyed->to_string() : std::string("unroutable");
      log += '\n';
      auto keyless = rig.router.route("");
      log += keyless.ok() ? keyless->to_string() : std::string("unroutable");
      log += '\n';
    }
  };

  double now = 0.0;
  for (int beat = 0; beat < 5; ++beat) {
    rig.beat_all(now);
    now += 2'000.0;
  }
  route_mix(0);
  // Node 1 dies: silence past dead_phi, then the failover rebuild.
  now += 23'000.0;
  rig.beat_all(now, /*except=*/1);
  EXPECT_EQ(rig.membership.view()->health[1], Health::kDead);
  rig.shard_map.rebuild(*rig.membership.view());
  route_mix(1);
  // Node 1 rejoins: revive + rebalance rebuild.
  now += 2'000.0;
  rig.beat_all(now);
  EXPECT_EQ(rig.membership.view()->health[1], Health::kHealthy);
  rig.shard_map.rebuild(*rig.membership.view());
  route_mix(2);
  return log;
}

class RouterDeterminism : public ::testing::TestWithParam<int> {};

TEST_P(RouterDeterminism, SameSeedSameEventsByteIdenticalDecisions) {
  const std::string first = scripted_decision_log(GetParam());
  const std::string second = scripted_decision_log(GetParam());
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);  // byte-identical replay
  // Decisions carry the versions they were made under: the scenario has
  // three distinct (map_version, epoch) regimes.
  EXPECT_NE(first.find(" v=0 "), std::string::npos);
  EXPECT_NE(first.find(" v=2 "), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(ReplicationFactors, RouterDeterminism,
                         ::testing::Values(1, 2, 3));

// ----------------------------------------------------------- federation

FederationOptions small_federation(std::size_t nodes) {
  FederationOptions options;
  options.num_nodes = nodes;
  options.node.queue_capacity = 256;
  options.node.worker_threads = 1;
  options.node.batch.max_batch = 4;
  options.node.batch.max_wait = std::chrono::microseconds(500);
  options.shard_map.num_shards = 32;
  options.shard_map.replication = 2;
  options.membership.heartbeat_interval_us = 2'000.0;
  options.membership.suspect_phi = 2.0;
  options.membership.dead_phi = 4.0;
  options.pump_period_us = 1'000.0;
  return options;
}

/// Submits `count` requests (keyed when `keyed` is true) and waits for
/// every accepted one to complete; returns (accepted, ok_responses).
std::pair<int, int> pump_traffic(Federation& federation, int count,
                                 bool keyed, std::uint64_t seed_base) {
  std::mutex mu;
  std::condition_variable cv;
  int pending = 0;
  int ok = 0;
  int accepted = 0;
  for (int i = 0; i < count; ++i) {
    serve::Request request;
    request.kernel = "test_kernel";
    request.seed = seed_base + static_cast<std::uint64_t>(i);
    if (keyed) request.data_key = "obj" + std::to_string(i % 24);
    {
      std::lock_guard<std::mutex> lock(mu);
      ++pending;
    }
    const std::uint64_t expect = request.seed % 1000;
    Status st = federation.submit(
        std::move(request), [&, expect](const serve::Response& response) {
          std::lock_guard<std::mutex> lock(mu);
          if (response.status.ok() &&
              response.value == static_cast<double>(expect)) {
            ++ok;
          }
          --pending;
          cv.notify_one();
        });
    if (st.ok()) {
      ++accepted;
    } else {
      std::lock_guard<std::mutex> lock(mu);
      --pending;
    }
  }
  std::unique_lock<std::mutex> lock(mu);
  cv.wait_for(lock, std::chrono::seconds(20), [&] { return pending == 0; });
  EXPECT_EQ(pending, 0);
  return {accepted, ok};
}

TEST(Federation, ServesKeyedAndKeylessTraffic) {
  Federation federation(small_federation(3));
  ASSERT_TRUE(federation.register_endpoint(test_endpoint()).ok());
  ASSERT_TRUE(federation.start().ok());

  auto [keyed_accepted, keyed_ok] = pump_traffic(federation, 48, true, 100);
  auto [keyless_accepted, keyless_ok] =
      pump_traffic(federation, 48, false, 500);
  EXPECT_EQ(keyed_ok, keyed_accepted);
  EXPECT_EQ(keyless_ok, keyless_accepted);

  const FederationStats stats = federation.stats();
  EXPECT_EQ(stats.submitted, 96u);
  EXPECT_EQ(stats.keyed, 48u);
  // All nodes healthy: every keyed request lands on a replica holder.
  EXPECT_EQ(stats.keyed_data_local, 48u);
  EXPECT_EQ(stats.routed_primary, 48u);
  EXPECT_EQ(stats.routed_p2c, 48u);
  EXPECT_EQ(stats.failovers, 0u);
  // Ingress != shard owner for most keyed traffic on 3 nodes: hops were
  // paid and metered.
  EXPECT_GT(stats.forwarded, 0u);
  EXPECT_GT(stats.hops, 0u);
  EXPECT_GT(stats.hop_mean_us, 0.0);
  federation.stop();
}

TEST(Federation, CrashFailoverThenRejoinKeepsKeyedTrafficAvailable) {
  Federation federation(small_federation(3));
  ASSERT_TRUE(federation.register_endpoint(test_endpoint()).ok());
  ASSERT_TRUE(federation.start().ok());

  auto [a0, o0] = pump_traffic(federation, 24, true, 1000);
  EXPECT_EQ(o0, a0);

  federation.crash(0);
  // Availability holds BEFORE detection: refused submits re-route to the
  // next replica.
  auto [a1, o1] = pump_traffic(federation, 24, true, 2000);
  EXPECT_EQ(o1, a1);
  EXPECT_EQ(a1, 24);

  // Detection declares node 0 dead and rebuilds the map within the
  // detection interval (bounded poll: CI machines stall). The pump
  // publishes the dead view before it rebuilds the map, so the poll
  // waits for the rebuild too.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while ((federation.membership().view()->health[0] != Health::kDead ||
          federation.stats().rebuilds < 1) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(federation.membership().view()->health[0], Health::kDead);
  FederationStats stats = federation.stats();
  EXPECT_GE(stats.failovers, 1u);
  EXPECT_GE(stats.rebuilds, 1u);
  EXPECT_GT(stats.refused_retries, 0u);
  // The failed-over table holds no replica on the dead node.
  auto table = federation.shard_table();
  for (const auto& replicas : table->replicas) {
    EXPECT_EQ(std::find(replicas.begin(), replicas.end(), 0u),
              replicas.end());
  }
  // Post-failover traffic is routed off the new map: all data-local.
  auto [a2, o2] = pump_traffic(federation, 24, true, 3000);
  EXPECT_EQ(o2, a2);
  EXPECT_EQ(a2, 24);

  federation.restart(0);
  while (federation.membership().view()->health[0] != Health::kHealthy &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(federation.membership().view()->health[0], Health::kHealthy);
  // The pump publishes the healthy view BEFORE it rebuilds the map, so
  // poll the counter too (the gap is microseconds natively but real
  // under sanitizers).
  while (federation.stats().rebuilds < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stats = federation.stats();
  EXPECT_GE(stats.rejoins, 1u);
  EXPECT_GE(stats.rebuilds, 2u);

  auto [a3, o3] = pump_traffic(federation, 24, true, 4000);
  EXPECT_EQ(o3, a3);
  EXPECT_EQ(a3, 24);
  federation.stop();
}

/// Keyed traffic with real input bytes, so staging actually fills the
/// per-node input caches (pump_traffic leaves input_bytes at 0).
void pump_keyed_inputs(Federation& federation, int count,
                       std::uint64_t seed_base) {
  std::mutex mu;
  std::condition_variable cv;
  int pending = 0;
  for (int i = 0; i < count; ++i) {
    serve::Request request;
    request.kernel = "test_kernel";
    request.seed = seed_base + static_cast<std::uint64_t>(i);
    request.data_key = "obj" + std::to_string(i % 24);
    request.input_bytes = 64.0 * 1024;
    {
      std::lock_guard<std::mutex> lock(mu);
      ++pending;
    }
    Status st = federation.submit(std::move(request),
                                  [&](const serve::Response&) {
                                    std::lock_guard<std::mutex> lock(mu);
                                    --pending;
                                    cv.notify_one();
                                  });
    if (!st.ok()) {
      std::lock_guard<std::mutex> lock(mu);
      --pending;
    }
  }
  std::unique_lock<std::mutex> lock(mu);
  cv.wait_for(lock, std::chrono::seconds(20), [&] { return pending == 0; });
  ASSERT_EQ(pending, 0);
}

// E22 restart-to-warm: with a per-node staging WAL, a crashed node's
// input cache is replayed back on restart instead of re-paying every
// input transfer.
TEST(Federation, WarmRestartReplaysInputCacheFromWal) {
  namespace fs = std::filesystem;
  const std::string dir =
      (fs::temp_directory_path() /
       ("everest_fed_warm_" + std::to_string(getpid())))
          .string();
  fs::remove_all(dir);

  FederationOptions options = small_federation(3);
  options.node.input_cache.capacity_bytes = 8.0 * 1024 * 1024;
  options.node.input_stage_scale = 0.0;
  options.storage_dir = dir;
  options.cold_restart_cache = true;
  Federation federation(options);
  ASSERT_TRUE(federation.register_endpoint(test_endpoint()).ok());
  ASSERT_TRUE(federation.start().ok());

  pump_keyed_inputs(federation, 48, 100);
  // Find a node whose input cache the traffic actually warmed.
  std::size_t victim = federation.num_nodes();
  for (std::size_t i = 0; i < federation.num_nodes(); ++i) {
    if (federation.node(i).input_cache_resident_bytes() > 0.0) {
      victim = i;
      break;
    }
  }
  ASSERT_LT(victim, federation.num_nodes());

  federation.crash(victim);
  // Process death: the staged inputs died with the process…
  EXPECT_DOUBLE_EQ(federation.node(victim).input_cache_resident_bytes(), 0.0);

  federation.restart(victim);
  // …and the WAL replay brought them back before admission resumed.
  EXPECT_GT(federation.node(victim).input_cache_resident_bytes(), 0.0);
  const FederationStats stats = federation.stats();
  EXPECT_GT(stats.warm_restored_entries, 0u);
  federation.stop();
  fs::remove_all(dir);
}

// Hinted handoff: traffic homed on a crashed node is staged (and WAL-
// logged) by the failover owners, stamped with its *home* primary; the
// node's restart pulls those keys out of the survivors' logs even
// though its own WAL never saw them.
TEST(Federation, RestartPullsHomeKeysFromPeersWals) {
  namespace fs = std::filesystem;
  const std::string dir =
      (fs::temp_directory_path() /
       ("everest_fed_handoff_" + std::to_string(getpid())))
          .string();
  fs::remove_all(dir);

  FederationOptions options = small_federation(3);
  options.node.input_cache.capacity_bytes = 8.0 * 1024 * 1024;
  options.node.input_stage_scale = 0.0;
  options.storage_dir = dir;
  options.cold_restart_cache = true;
  Federation federation(options);
  ASSERT_TRUE(federation.register_endpoint(test_endpoint()).ok());
  ASSERT_TRUE(federation.start().ok());

  // The victim is down for the whole traffic window: every key homed on
  // it is served — and staged — by its failover replicas, so only the
  // survivors' WALs know about those inputs.
  const std::size_t victim = 0;
  federation.crash(victim);
  pump_keyed_inputs(federation, 48, 100);
  EXPECT_DOUBLE_EQ(federation.node(victim).input_cache_resident_bytes(), 0.0);

  federation.restart(victim);
  const FederationStats stats = federation.stats();
  EXPECT_GT(stats.hinted_handoff_entries, 0u);
  // The handed-off entries landed in the restarted node's input cache.
  EXPECT_GT(federation.node(victim).input_cache_resident_bytes(), 0.0);
  federation.stop();
  fs::remove_all(dir);
}

TEST(Federation, ColdRestartWithoutWalStaysCold) {
  FederationOptions options = small_federation(3);
  options.node.input_cache.capacity_bytes = 8.0 * 1024 * 1024;
  options.node.input_stage_scale = 0.0;
  options.cold_restart_cache = true;  // but no storage_dir: nothing logged
  Federation federation(options);
  ASSERT_TRUE(federation.register_endpoint(test_endpoint()).ok());
  ASSERT_TRUE(federation.start().ok());

  pump_keyed_inputs(federation, 48, 100);
  std::size_t victim = federation.num_nodes();
  for (std::size_t i = 0; i < federation.num_nodes(); ++i) {
    if (federation.node(i).input_cache_resident_bytes() > 0.0) {
      victim = i;
      break;
    }
  }
  ASSERT_LT(victim, federation.num_nodes());

  federation.crash(victim);
  federation.restart(victim);
  // No log to replay: the node rejoins cold and re-pays its transfers.
  EXPECT_DOUBLE_EQ(federation.node(victim).input_cache_resident_bytes(), 0.0);
  EXPECT_EQ(federation.stats().warm_restored_entries, 0u);
  federation.stop();
}

TEST(Federation, AllNodesCrashedIsUnavailableNotUndefined) {
  Federation federation(small_federation(2));
  ASSERT_TRUE(federation.register_endpoint(test_endpoint()).ok());
  ASSERT_TRUE(federation.start().ok());
  federation.crash(0);
  federation.crash(1);
  serve::Request request;
  request.kernel = "test_kernel";
  bool fired = false;
  Status st = federation.submit(
      std::move(request), [&](const serve::Response&) { fired = true; });
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);
  EXPECT_FALSE(fired);  // rejected submits never fire the callback
  EXPECT_GE(federation.stats().unroutable, 1u);
  federation.restart(0);
  federation.restart(1);
  federation.stop();
}

TEST(Federation, StopDoesNotWaitOutThePumpPeriod) {
  FederationOptions options = small_federation(2);
  options.pump_period_us = 5'000'000.0;  // one heartbeat tick per 5 s
  Federation federation(options);
  ASSERT_TRUE(federation.register_endpoint(test_endpoint()).ok());
  ASSERT_TRUE(federation.start().ok());
  // Let the pump run its first tick and start waiting for the next one.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const auto t0 = std::chrono::steady_clock::now();
  federation.stop();
  EXPECT_LT(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds(100));
}

TEST(Federation, LoadgenAdaptersDriveTheWholeCluster) {
  Federation federation(small_federation(2));
  ASSERT_TRUE(federation.register_endpoint(test_endpoint()).ok());
  ASSERT_TRUE(federation.start().ok());

  serve::WorkloadSpec spec;
  spec.kernels = {"test_kernel"};
  spec.offered_rps = 400.0;
  spec.duration = std::chrono::milliseconds(200);
  spec.lc_deadline_ms = 0.0;
  spec.tp_deadline_ms = 0.0;
  spec.num_data_objects = 16;
  spec.input_bytes = 0.0;
  const serve::LoadReport report = serve::run_open_loop(
      federation.submit_fn(), federation.drain_fn(), spec);
  EXPECT_GT(report.completed, 0u);
  EXPECT_EQ(report.completed + report.rejected + report.failed +
                report.expired,
            report.offered);
  EXPECT_GT(federation.stats().keyed, 0u);
  federation.stop();
}

}  // namespace
}  // namespace everest::cluster
