// Tests for the online variant specialization service (src/jit): the
// compile budget, hot-tuple detection from serving feature exports, the
// deterministic specialization pipeline, the versioned variant cache
// (publish / retire / evict / persist), and the budgeted, breaker-guarded
// compilation service end to end.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <tuple>

#include "jit/budget.hpp"
#include "jit/cache.hpp"
#include "jit/detector.hpp"
#include "jit/jit.hpp"
#include "jit/service.hpp"
#include "jit/specialize.hpp"
#include "jit/tuple.hpp"
#include "serve/metrics.hpp"
#include "serve/request.hpp"
#include "storage/env.hpp"

namespace everest::jit {
namespace {

KernelSpec test_spec(const std::string& kernel = "k") {
  KernelSpec spec;
  spec.kernel = kernel;
  spec.profile.flops = 4e6;
  spec.profile.bytes_read = 2e6;
  spec.profile.bytes_written = 5e5;
  spec.profile.live_bytes = 1 << 20;
  spec.base_dim = 64.0;
  return spec;
}

compiler::Variant generic_variant(const std::string& kernel,
                                  double latency_us) {
  compiler::Variant v;
  v.id = "cpu-generic";
  v.kernel = kernel;
  v.target = compiler::TargetKind::kCpu;
  v.threads = 1;
  v.layout = "aos";
  v.latency_us = latency_us;
  v.energy_uj = latency_us * 50.0;
  return v;
}

// ------------------------------------------------------- feature bucket --

TEST(FeatureBucket, RoundTripsThroughLog2Buckets) {
  EXPECT_EQ(serve::feature_bucket(1.0), 0);
  EXPECT_EQ(serve::feature_bucket(4.0), 2);
  EXPECT_EQ(serve::feature_bucket(0.25), -2);
  EXPECT_EQ(serve::feature_bucket(0.0), 0);   // degenerate input
  EXPECT_EQ(serve::feature_bucket(1e30), 16); // clamped
  EXPECT_DOUBLE_EQ(serve::feature_bucket_scale(2), 4.0);
  EXPECT_DOUBLE_EQ(serve::feature_bucket_scale(-2), 0.25);
  // A scale maps into the bucket whose representative scale re-buckets
  // to itself.
  for (int b = -8; b <= 8; ++b) {
    EXPECT_EQ(serve::feature_bucket(serve::feature_bucket_scale(b)), b);
  }
}

TEST(HotTupleTest, KeyHashAndOrdering) {
  const HotTuple a{"k", 2, "t1"};
  const HotTuple b{"k", 2, "t1"};
  const HotTuple c{"k", 3, "t1"};
  EXPECT_EQ(a.key(), "k|b2|t1");
  EXPECT_DOUBLE_EQ(a.scale(), 4.0);
  EXPECT_EQ(a, b);
  EXPECT_EQ(HotTupleHash{}(a), HotTupleHash{}(b));
  EXPECT_TRUE(a < c);
}

TEST(Detector, ParsesCanonicalFeatureKeys) {
  const std::string key = obs::Registry::key_of(
      "serve.feature.requests",
      {{"kernel", "aq"}, {"tenant", "t7"}, {"bucket", "-3"}});
  HotTuple tuple;
  ASSERT_TRUE(parse_feature_key(key, "serve.feature.requests", &tuple));
  EXPECT_EQ(tuple.kernel, "aq");
  EXPECT_EQ(tuple.tenant, "t7");
  EXPECT_EQ(tuple.bucket, -3);
  EXPECT_FALSE(parse_feature_key(key, "serve.feature.service_us", &tuple));
  EXPECT_FALSE(parse_feature_key("serve.feature.requests",
                                 "serve.feature.requests", &tuple));
}

// -------------------------------------------------------------- budget --

TEST(Budget, StartsFullDrainsAndRefills) {
  CompileBudget budget({/*compile_us_per_s=*/10'000.0, /*burst_us=*/20'000.0});
  EXPECT_DOUBLE_EQ(budget.available_us(0.0), 20'000.0);
  EXPECT_TRUE(budget.try_acquire(15'000.0, 0.0));
  EXPECT_FALSE(budget.try_acquire(15'000.0, 0.0));  // only 5k left
  EXPECT_EQ(budget.stats().denied, 1u);
  // One second refills 10k (capped at burst).
  EXPECT_TRUE(budget.try_acquire(15'000.0, 1e6));
  EXPECT_DOUBLE_EQ(budget.available_us(1e6), 0.0);
}

TEST(Budget, SettleRefundsOverestimateAndChargesOverrun) {
  CompileBudget budget({10'000.0, 20'000.0});
  ASSERT_TRUE(budget.try_acquire(10'000.0, 0.0));
  budget.settle(10'000.0, 2'000.0, 0.0);  // compile was cheaper
  EXPECT_DOUBLE_EQ(budget.available_us(0.0), 18'000.0);
  ASSERT_TRUE(budget.try_acquire(10'000.0, 0.0));
  budget.settle(10'000.0, 40'000.0, 0.0);  // massive overrun -> debt
  EXPECT_LT(budget.available_us(0.0), 0.0);
  EXPECT_FALSE(budget.try_acquire(1.0, 0.0));  // debt blocks new grants
  EXPECT_DOUBLE_EQ(budget.stats().settled_us, 42'000.0);
}

// ------------------------------------------------------------ detector --

TEST(Detector, SurfacesHotTupleWithRegret) {
  runtime::KnowledgeBase kb;
  ASSERT_TRUE(kb.load({generic_variant("k", 25.0)}).ok());

  serve::ServingMetrics metrics;
  // 40 requests of scale 4 (bucket 2) observed at 250us/request; the
  // generic variant promises 25 * 4 = 100us -> regret 150us.
  for (int i = 0; i < 40; ++i) {
    metrics.record_feature("k", "t1", 4.0, 250.0);
  }

  obs::Registry jit_registry;
  HotTupleDetector detector(&kb, &jit_registry);
  auto candidates = detector.scan(metrics.registry().snapshot(1e6));
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0].tuple.kernel, "k");
  EXPECT_EQ(candidates[0].tuple.bucket, 2);
  EXPECT_EQ(candidates[0].tuple.tenant, "t1");
  EXPECT_EQ(candidates[0].signal.requests, 40u);
  EXPECT_NEAR(candidates[0].signal.mean_service_us, 250.0, 1e-6);
  EXPECT_NEAR(candidates[0].signal.regret_us, 150.0, 1e-6);
  EXPECT_NEAR(candidates[0].priority, 40 * 150.0, 1e-6);
  // The regret gauge is exported per tuple.
  const auto snap = jit_registry.snapshot();
  EXPECT_EQ(snap.counters.at("jit.detector.scans"), 1u);

  // Second scan with no new traffic: the window delta is empty.
  EXPECT_TRUE(detector.scan(metrics.registry().snapshot(2e6)).empty());
  EXPECT_EQ(detector.last_window_tuples(), 0u);
}

TEST(Detector, RespectsThresholdsAndCandidateCap) {
  runtime::KnowledgeBase kb;
  ASSERT_TRUE(kb.load({generic_variant("k", 25.0)}).ok());
  serve::ServingMetrics metrics;
  // Cold tuple: plenty of regret but only 5 requests.
  for (int i = 0; i < 5; ++i) metrics.record_feature("k", "cold", 4.0, 400.0);
  // Well-served tuple: hot but observed cost matches the promise.
  for (int i = 0; i < 100; ++i) {
    metrics.record_feature("k", "happy", 4.0, 100.0);
  }
  HotTupleDetector detector(&kb);
  EXPECT_TRUE(detector.scan(metrics.registry().snapshot(1e6)).empty());
  EXPECT_EQ(detector.last_window_tuples(), 2u);

  // max_candidates keeps only the best tuples.
  serve::ServingMetrics m2;
  for (int t = 0; t < 6; ++t) {
    for (int i = 0; i < 50 + 10 * t; ++i) {
      m2.record_feature("k", "t" + std::to_string(t), 4.0, 300.0);
    }
  }
  DetectorConfig config;
  config.max_candidates = 2;
  HotTupleDetector capped(&kb, nullptr, config);
  auto top = capped.scan(m2.registry().snapshot(1e6));
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].tuple.tenant, "t5");  // hottest first
  EXPECT_EQ(top[1].tuple.tenant, "t4");
}

// ---------------------------------------------------------- specialize --

TEST(Specialize, MintsShapeSpecializedParetoPicks) {
  const KernelSpec spec = test_spec();
  SpecializeRequest request;
  request.tuple = {"k", 2, "t1"};
  request.seed = 7;
  auto minted = specialize(spec, request);
  ASSERT_TRUE(minted.ok());
  ASSERT_FALSE(minted->variants.empty());
  EXPECT_LE(minted->variants.size(), 3u);
  EXPECT_GE(minted->pareto_size, 1u);
  EXPECT_GT(minted->dse_points, minted->pareto_size);
  for (const compiler::Variant& v : minted->variants) {
    EXPECT_EQ(v.kernel, "k");
    EXPECT_DOUBLE_EQ(v.specialized_scale, 4.0);
    EXPECT_GT(v.latency_us, 0.0);
    EXPECT_EQ(v.id.rfind("jit-k-b2-t1-v1-", 0), 0u) << v.id;
  }
}

TEST(Specialize, SpecializedBeatsGenericAtItsScale) {
  const KernelSpec spec = test_spec();
  SpecializeRequest request;
  request.tuple = {"k", 3, ""};
  auto minted = specialize(spec, request);
  ASSERT_TRUE(minted.ok());
  const double scale = request.tuple.scale();
  // Generic code = untiled AoS single thread (the conservative default).
  const double generic = estimate_shaped(spec, 1, 0, "aos", scale).latency_us;
  double best_minted = 1e300;
  for (const compiler::Variant& v : minted->variants) {
    best_minted = std::min(best_minted, estimate_variant(spec, v, scale).latency_us);
  }
  EXPECT_LT(best_minted, generic);
  // And the oracle is a lower bound on everything minted.
  EXPECT_GE(best_minted * (1.0 + 1e-9), oracle_latency_us(spec, scale));
}

TEST(Specialize, RejectsEmptyProfileAndKnobSpace) {
  KernelSpec empty;
  empty.kernel = "k";
  SpecializeRequest request;
  request.tuple = {"k", 0, ""};
  EXPECT_EQ(specialize(empty, request).status().code(),
            StatusCode::kInvalidArgument);
  KernelSpec no_knobs = test_spec();
  no_knobs.thread_candidates.clear();
  EXPECT_EQ(specialize(no_knobs, request).status().code(),
            StatusCode::kInvalidArgument);
}

// The determinism contract: byte-identical descriptor bytes for the same
// (tuple, seed) across independent runs — the warm-restart precondition.
class SpecializeDeterminism
    : public ::testing::TestWithParam<std::tuple<int, const char*, int>> {};

TEST_P(SpecializeDeterminism, ByteIdenticalDescriptorsAcrossReruns) {
  const auto [bucket, tenant, seed] = GetParam();
  SpecializeRequest request;
  request.tuple = {"k", bucket, tenant};
  request.seed = static_cast<std::uint64_t>(seed);
  request.version = 2;

  auto first = specialize(test_spec(), request);
  ASSERT_TRUE(first.ok());
  for (int rerun = 0; rerun < 3; ++rerun) {
    auto again = specialize(test_spec(), request);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(first->descriptor_json, again->descriptor_json);
    ASSERT_EQ(first->variants.size(), again->variants.size());
    for (std::size_t i = 0; i < first->variants.size(); ++i) {
      EXPECT_EQ(first->variants[i].id, again->variants[i].id);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    TupleSeedGrid, SpecializeDeterminism,
    ::testing::Values(std::make_tuple(0, "", 1), std::make_tuple(2, "t1", 1),
                      std::make_tuple(2, "t1", 99),
                      std::make_tuple(-3, "edge", 7),
                      std::make_tuple(6, "big", 42)));

// --------------------------------------------------------------- cache --

TEST(Cache, PublishHotSwapsAndRetiresPriorVersion) {
  runtime::KnowledgeBase kb;
  ASSERT_TRUE(kb.load({generic_variant("k", 25.0)}).ok());
  VariantCache cache(&kb);
  const HotTuple tuple{"k", 2, "t1"};
  EXPECT_EQ(cache.covers(tuple), 0u);

  SpecializeRequest request;
  request.tuple = tuple;
  auto v1 = specialize(test_spec(), request);
  ASSERT_TRUE(v1.ok());
  auto published = cache.publish(tuple, *v1, /*seed=*/0);
  ASSERT_TRUE(published.ok());
  EXPECT_EQ(*published, 1u);
  EXPECT_EQ(cache.covers(tuple), 1u);
  // The generic variant survives; minted ids are live.
  EXPECT_TRUE(kb.find("k", "cpu-generic").has_value());
  for (const compiler::Variant& v : v1->variants) {
    EXPECT_TRUE(kb.find("k", v.id).has_value());
  }

  // Re-mint at version 2: v1 ids retired, v2 live, epoch advanced.
  const std::uint64_t epoch_before = kb.epoch("k");
  request.version = 2;
  auto v2 = specialize(test_spec(), request);
  ASSERT_TRUE(v2.ok());
  ASSERT_TRUE(cache.publish(tuple, *v2, 0).ok());
  EXPECT_EQ(cache.covers(tuple), 2u);
  EXPECT_GT(kb.epoch("k"), epoch_before);
  for (const compiler::Variant& v : v1->variants) {
    EXPECT_FALSE(kb.find("k", v.id).has_value()) << v.id;
  }
  for (const compiler::Variant& v : v2->variants) {
    EXPECT_TRUE(kb.find("k", v.id).has_value()) << v.id;
  }
  EXPECT_EQ(cache.stats().publishes, 2u);
}

TEST(Cache, RejectsBadPublishes) {
  runtime::KnowledgeBase kb;
  VariantCache cache(&kb);
  const HotTuple tuple{"k", 2, "t1"};
  EXPECT_EQ(cache.publish(tuple, MintedVariants{}, 0).status().code(),
            StatusCode::kInvalidArgument);
  MintedVariants wrong;
  wrong.variants.push_back(generic_variant("other-kernel", 10.0));
  EXPECT_EQ(cache.publish(tuple, wrong, 0).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(Cache, LruEvictionRetiresVariants) {
  runtime::KnowledgeBase kb;
  CacheConfig config;
  config.max_entries = 2;
  VariantCache cache(&kb, nullptr, config);

  std::vector<std::vector<compiler::Variant>> published;
  for (int b = 0; b < 3; ++b) {
    const HotTuple tuple{"k", b, "t"};
    SpecializeRequest request;
    request.tuple = tuple;
    auto minted = specialize(test_spec(), request);
    ASSERT_TRUE(minted.ok());
    ASSERT_TRUE(cache.publish(tuple, *minted, 0).ok());
    published.push_back(minted->variants);
  }
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  // The LRU victim (bucket 0) is gone from cache AND knowledge base.
  EXPECT_EQ(cache.covers({"k", 0, "t"}), 0u);
  for (const compiler::Variant& v : published[0]) {
    EXPECT_FALSE(kb.find("k", v.id).has_value());
  }
  for (const compiler::Variant& v : published[2]) {
    EXPECT_TRUE(kb.find("k", v.id).has_value());
  }
}

TEST(Cache, PersistAndWarmRestartRoundtrip) {
  const std::string path =
      ::testing::TempDir() + "/jitcache_roundtrip.json";
  std::remove(path.c_str());

  runtime::KnowledgeBase kb;
  VariantCache cache(&kb);
  const HotTuple t1{"k", 2, "a"};
  const HotTuple t2{"k", 4, "b"};
  for (const HotTuple& t : {t1, t2}) {
    SpecializeRequest request;
    request.tuple = t;
    auto minted = specialize(test_spec(), request);
    ASSERT_TRUE(minted.ok());
    ASSERT_TRUE(cache.publish(t, *minted, /*seed=*/42).ok());
  }
  ASSERT_TRUE(cache.save(storage::Env::posix(), path).ok());

  // Fresh process: new KB, new cache, no DSE run.
  runtime::KnowledgeBase kb2;
  VariantCache cache2(&kb2);
  auto restored = cache2.load(storage::Env::posix(), path);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(*restored, 2u);
  EXPECT_EQ(cache2.covers(t1), 1u);
  EXPECT_EQ(cache2.covers(t2), 1u);
  const auto entry = cache2.lookup(t1);
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->seed, 42u);
  for (const compiler::Variant& v : entry->variants) {
    const auto live = kb2.find("k", v.id);
    ASSERT_TRUE(live.has_value());
    EXPECT_DOUBLE_EQ(live->specialized_scale, 4.0);
  }
  // Missing file is a clean NOT_FOUND (cold start).
  VariantCache cache3(&kb2);
  EXPECT_EQ(cache3.load(storage::Env::posix(), path + ".nope").status().code(),
            StatusCode::kNotFound);
  std::remove(path.c_str());
}

// ------------------------------------------------------------- service --

ServiceConfig tight_budget_config() {
  ServiceConfig config;
  config.estimated_compile_us = 5'000.0;
  config.budget.compile_us_per_s = 5'000.0;
  config.budget.burst_us = 5'000.0;
  return config;
}

HotCandidate candidate(const HotTuple& tuple, double priority) {
  HotCandidate c;
  c.tuple = tuple;
  c.priority = priority;
  return c;
}

TEST(Service, CompilesQueueBestPriorityFirstUnderBudget) {
  runtime::KnowledgeBase kb;
  VariantCache cache(&kb);
  CompilationService service(&cache, nullptr, nullptr, tight_budget_config());
  service.register_kernel(test_spec());

  ASSERT_EQ(service.enqueue({candidate({"k", 2, "hot"}, 100.0),
                             candidate({"k", 3, "warm"}, 50.0)}),
            2u);
  EXPECT_EQ(service.queue_depth(), 2u);

  // Burst covers exactly one compile: the hot tuple goes first, the warm
  // one stays queued when the bucket empties.
  EXPECT_EQ(service.run_pending(/*now_us=*/0.0), 1u);
  EXPECT_EQ(cache.covers({"k", 2, "hot"}), 1u);
  EXPECT_EQ(cache.covers({"k", 3, "warm"}), 0u);
  EXPECT_EQ(service.queue_depth(), 1u);
  EXPECT_EQ(service.stats().budget_denied, 1u);

  // A second later the bucket refilled; the pump finishes the queue.
  EXPECT_EQ(service.run_pending(1e6), 1u);
  EXPECT_EQ(cache.covers({"k", 3, "warm"}), 1u);
  EXPECT_EQ(service.queue_depth(), 0u);
  EXPECT_EQ(service.stats().compiles_ok, 2u);
}

TEST(Service, BoundedQueueDropsLowestPriorityAndDedups) {
  runtime::KnowledgeBase kb;
  VariantCache cache(&kb);
  ServiceConfig config = tight_budget_config();
  config.queue_capacity = 2;
  CompilationService service(&cache, nullptr, nullptr, config);
  service.register_kernel(test_spec());

  service.enqueue({candidate({"k", 1, "a"}, 10.0)});
  service.enqueue({candidate({"k", 1, "a"}, 10.0)});  // duplicate ignored
  EXPECT_EQ(service.queue_depth(), 1u);
  service.enqueue({candidate({"k", 2, "b"}, 30.0),
                   candidate({"k", 3, "c"}, 20.0)});
  EXPECT_EQ(service.queue_depth(), 2u);  // "a" (priority 10) dropped
  EXPECT_EQ(service.stats().dropped_full, 1u);
  EXPECT_EQ(service.run_pending(0.0), 1u);
  EXPECT_EQ(cache.covers({"k", 2, "b"}), 1u);  // best priority compiled
}

TEST(Service, SkipsTuplesAlreadyCovered) {
  runtime::KnowledgeBase kb;
  VariantCache cache(&kb);
  CompilationService service(&cache, nullptr, nullptr, ServiceConfig{});
  service.register_kernel(test_spec());
  const HotTuple tuple{"k", 2, "t"};
  ASSERT_TRUE(service.compile_now(tuple, 0.0).ok());
  EXPECT_EQ(service.enqueue({candidate(tuple, 99.0)}), 0u);
  EXPECT_EQ(service.stats().dropped_covered, 1u);
}

TEST(Service, BreakerTripsOnRepeatedCompileFailure) {
  runtime::KnowledgeBase kb;
  VariantCache cache(&kb);
  ServiceConfig config;
  config.breaker.failure_threshold = 3;
  CompilationService service(&cache, nullptr, nullptr, config);
  // A kernel whose spec cannot compile (empty profile).
  KernelSpec broken;
  broken.kernel = "bad";
  service.register_kernel(broken);

  const HotTuple tuple{"bad", 1, "t"};
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(service.compile_now(tuple, 0.0).status().code(),
              StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(service.breakers().state("jit", tuple.key()),
            resilience::BreakerState::kOpen);
  // While open the tuple is dropped without burning budget on it.
  EXPECT_EQ(service.compile_now(tuple, 0.0).status().code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(service.stats().dropped_breaker, 1u);
  EXPECT_EQ(service.stats().compiles_failed, 3u);
  // Serving is untouched: the kernel keeps whatever variants it had
  // (here none were ever replaced — degraded mode is "generic only").
  EXPECT_EQ(service.compile_now({"bad", 2, "t"}, 0.0).status().code(),
            StatusCode::kInvalidArgument);  // other tuples still tried

  // Unregistered kernels fail cleanly too.
  EXPECT_EQ(service.compile_now({"ghost", 0, ""}, 0.0).status().code(),
            StatusCode::kNotFound);
}

// ------------------------------------------------- JitService (facade) --

TEST(JitServiceTest, TickClosesDetectCompilePublishLoop) {
  runtime::KnowledgeBase kb;
  ASSERT_TRUE(kb.load({generic_variant("k", 25.0)}).ok());
  serve::ServingMetrics metrics;
  for (int i = 0; i < 64; ++i) metrics.record_feature("k", "t1", 4.0, 300.0);

  obs::Registry jit_registry;
  JitService jit(&kb, &metrics.registry(), &jit_registry);
  jit.register_kernel(test_spec());

  EXPECT_EQ(jit.tick(/*now_us=*/1e6), 1u);
  EXPECT_EQ(jit.cache().covers({"k", 2, "t1"}), 1u);
  // The minted variants are selectable at the tuple's scale.
  bool specialized_live = false;
  for (const compiler::Variant& v : *kb.variants_for("k")) {
    if (v.specialized_scale > 0.0) specialized_live = true;
  }
  EXPECT_TRUE(specialized_live);
  const auto snap = jit_registry.snapshot();
  EXPECT_EQ(snap.counters.at("jit.compile.ok"), 1u);
  EXPECT_GE(snap.histograms.at("jit.compile_us").count, 1u);

  // A second tick sees no fresh traffic and mints nothing new.
  EXPECT_EQ(jit.tick(2e6), 0u);
}

TEST(JitServiceTest, WarmRestartRestoresCoverageWithoutCompiling) {
  const std::string path = ::testing::TempDir() + "/jit_warm_restart.json";
  std::remove(path.c_str());
  JitConfig config;
  config.cache_path = path;

  serve::ServingMetrics metrics;
  for (int i = 0; i < 64; ++i) metrics.record_feature("k", "t1", 4.0, 300.0);

  {
    runtime::KnowledgeBase kb;
    ASSERT_TRUE(kb.load({generic_variant("k", 25.0)}).ok());
    JitService jit(&kb, &metrics.registry(), nullptr, nullptr,
                   storage::Env::posix(), config);
    jit.register_kernel(test_spec());
    ASSERT_EQ(jit.tick(1e6), 1u);
    ASSERT_TRUE(jit.persist().ok());
  }

  // Restarted process: coverage is back before any compile runs.
  runtime::KnowledgeBase kb2;
  ASSERT_TRUE(kb2.load({generic_variant("k", 25.0)}).ok());
  JitService jit2(&kb2, &metrics.registry(), nullptr, nullptr,
                  storage::Env::posix(), config);
  jit2.register_kernel(test_spec());
  auto restored = jit2.warm_restart();
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(*restored, 1u);
  EXPECT_EQ(jit2.cache().covers({"k", 2, "t1"}), 1u);
  EXPECT_EQ(jit2.service().stats().compiles_ok, 0u);
  bool specialized_live = false;
  for (const compiler::Variant& v : *kb2.variants_for("k")) {
    if (v.specialized_scale > 0.0) specialized_live = true;
  }
  EXPECT_TRUE(specialized_live);
  std::remove(path.c_str());
}

TEST(JitServiceTest, BackgroundThreadStartStopIsClean) {
  runtime::KnowledgeBase kb;
  ASSERT_TRUE(kb.load({generic_variant("k", 25.0)}).ok());
  serve::ServingMetrics metrics;
  for (int i = 0; i < 64; ++i) metrics.record_feature("k", "t1", 4.0, 300.0);
  JitConfig config;
  config.scan_period_us = 1'000.0;
  JitService jit(&kb, &metrics.registry(), nullptr, nullptr, nullptr, config);
  jit.register_kernel(test_spec());
  jit.start();
  jit.start();  // idempotent
  for (int i = 0; i < 200 && jit.cache().covers({"k", 2, "t1"}) == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  jit.stop();
  jit.stop();  // idempotent
  EXPECT_EQ(jit.cache().covers({"k", 2, "t1"}), 1u);
}

TEST(JitServiceTest, StopDoesNotWaitOutTheScanPeriod) {
  runtime::KnowledgeBase kb;
  serve::ServingMetrics metrics;
  JitConfig config;
  config.scan_period_us = 5'000'000.0;
  JitService jit(&kb, &metrics.registry(), nullptr, nullptr, nullptr, config);
  jit.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const auto t0 = std::chrono::steady_clock::now();
  jit.stop();
  EXPECT_LT(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds(100));
}

}  // namespace
}  // namespace everest::jit
