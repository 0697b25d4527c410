// Tests for src/stream: event-time windowing determinism (TEST_P over
// eviction policies + same-seed reruns), watermark/late-event edges,
// bounded session queues with drop accounting, two-lane ingest
// admission + WAL replay (and the journal's pinned golden frames),
// pub/sub delta propagation, and the crash-mid-window failover replay
// byte-identity contract.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <latch>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "data/plane.hpp"
#include "obs/registry.hpp"
#include "platform/desim.hpp"
#include "serve/loadgen.hpp"
#include "storage/fault_env.hpp"
#include "storage/format.hpp"
#include "storage/log.hpp"
#include "stream/engine.hpp"
#include "stream/event.hpp"
#include "stream/federated.hpp"
#include "stream/ingestor.hpp"
#include "stream/operators.hpp"
#include "stream/pubsub.hpp"
#include "stream/session.hpp"
#include "stream/window.hpp"

namespace everest::stream {
namespace {

namespace fs = std::filesystem;

/// Self-cleaning scratch directory for WAL-backed tests.
class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = (fs::temp_directory_path() /
             ("everest_stream_test_" + tag + "_" + std::to_string(getpid())))
                .string();
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

Event make_event(std::string topic, std::uint64_t key, std::uint64_t t_us,
                 double value) {
  Event event;
  event.topic = std::move(topic);
  event.key = key;
  event.event_time_us = t_us;
  event.value = value;
  return event;
}

Event punctuation(std::string topic, std::uint64_t t_us) {
  Event event;
  event.topic = std::move(topic);
  event.event_time_us = t_us;
  event.punctuation = true;
  return event;
}

// ---- window assignment ----------------------------------------------------

TEST(WindowSpec, TumblingAssignsOneAlignedWindow) {
  WindowSpec spec;
  spec.kind = WindowKind::kTumbling;
  spec.size_us = 1000;
  std::vector<std::uint64_t> starts;
  spec.windows_of(2500, &starts);
  ASSERT_EQ(starts.size(), 1u);
  EXPECT_EQ(starts[0], 2000u);
  spec.windows_of(0, &starts);
  ASSERT_EQ(starts.size(), 1u);
  EXPECT_EQ(starts[0], 0u);
}

TEST(WindowSpec, SlidingAssignsEveryCoveringWindow) {
  WindowSpec spec;
  spec.kind = WindowKind::kSliding;
  spec.size_us = 1000;
  spec.slide_us = 250;
  std::vector<std::uint64_t> starts;
  spec.windows_of(1000, &starts);
  // Windows starting at 1000, 750, 500, 250 all cover t=1000
  // (start + 1000 > 1000); the one starting at 0 ends exactly at 1000
  // (exclusive) and must NOT contain it.
  ASSERT_EQ(starts.size(), 4u);
  EXPECT_EQ(starts.front(), 1000u);
  EXPECT_EQ(starts.back(), 250u);
}

// ---- windowed operator ----------------------------------------------------

TEST(WindowedOperator, EmitsInWindowEndThenKeyOrder) {
  WindowSpec spec;
  spec.size_us = 1000;
  WindowedOperator op("mean", "aq", spec, mean_accumulator());
  op.offer(make_event("aq", 2, 100, 4.0));
  op.offer(make_event("aq", 1, 200, 2.0));
  op.offer(make_event("aq", 1, 1500, 6.0));
  std::vector<WindowOutput> out;
  op.advance_watermark(2000, &out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].window_end_us, 1000u);
  EXPECT_EQ(out[0].key, 1u);
  EXPECT_DOUBLE_EQ(out[0].value, 2.0);
  EXPECT_EQ(out[1].window_end_us, 1000u);
  EXPECT_EQ(out[1].key, 2u);
  EXPECT_EQ(out[2].window_end_us, 2000u);
  EXPECT_DOUBLE_EQ(out[2].value, 6.0);
  EXPECT_EQ(op.stats().windows_closed, 3u);
  EXPECT_EQ(op.open_cells(), 0u);
}

TEST(WindowedOperator, LateEventDroppedAndCounted) {
  WindowSpec spec;
  spec.size_us = 1000;
  WindowedOperator op("count", "aq", spec, count_accumulator());
  std::vector<WindowOutput> out;
  op.offer(make_event("aq", 0, 500, 1.0));
  op.advance_watermark(1000, &out);
  ASSERT_EQ(out.size(), 1u);
  // t=900 belongs only to window [0,1000), which closed.
  EXPECT_FALSE(op.offer(make_event("aq", 0, 900, 1.0)));
  EXPECT_EQ(op.stats().late_dropped, 1u);
  // t=1000 opens [1000,2000): on time.
  EXPECT_TRUE(op.offer(make_event("aq", 0, 1000, 1.0)));
}

TEST(WindowedOperator, WatermarkNeverRegresses) {
  WindowSpec spec;
  spec.size_us = 1000;
  WindowedOperator op("count", "aq", spec, count_accumulator());
  std::vector<WindowOutput> out;
  op.advance_watermark(5000, &out);
  op.advance_watermark(3000, &out);  // must be a no-op
  EXPECT_EQ(op.watermark_us(), 5000u);
}

TEST(WindowedOperator, SlidingWindowFoldsIntoEveryCover) {
  WindowSpec spec;
  spec.kind = WindowKind::kSliding;
  spec.size_us = 1000;
  spec.slide_us = 500;
  WindowedOperator op("count", "aq", spec, count_accumulator());
  op.offer(make_event("aq", 0, 700, 1.0));  // covers [0,1000) and [500,1500)
  std::vector<WindowOutput> out;
  op.advance_watermark(1500, &out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(out[0].value, 1.0);
  EXPECT_DOUBLE_EQ(out[1].value, 1.0);
}

// ---- flat cell store vs an ordered-map reference ---------------------------

/// The straightforward cell store: one std::map entry per (window end,
/// key), so its iteration order IS the emission order. The operator under
/// test must match it output for output.
class MapReferenceOperator {
 public:
  MapReferenceOperator(WindowSpec spec, AccumulatorFactory factory)
      : spec_(spec), factory_(std::move(factory)) {}

  bool offer(const Event& event) {
    std::vector<std::uint64_t> starts;
    spec_.windows_of(event.event_time_us, &starts);
    bool folded = false;
    for (const std::uint64_t start : starts) {
      const std::uint64_t end = start + spec_.size_us;
      if (end <= watermark_) continue;
      auto [it, inserted] = cells_.try_emplace({end, event.key});
      if (inserted) {
        it->second.start_us = start;
        it->second.acc = factory_(event.key);
      }
      it->second.acc->add(event);
      ++it->second.events;
      folded = true;
    }
    return folded;
  }

  void advance_watermark(std::uint64_t watermark_us,
                         std::vector<WindowOutput>* out) {
    if (watermark_us <= watermark_) return;
    watermark_ = watermark_us;
    auto it = cells_.begin();
    while (it != cells_.end() && it->first.first <= watermark_) {
      WindowOutput output;
      output.topic = "aq";
      output.op = "ref";
      output.key = it->first.second;
      output.window_start_us = it->second.start_us;
      output.window_end_us = it->first.first;
      output.events = it->second.events;
      output.value =
          it->second.acc->finish(it->second.start_us, it->first.first);
      out->push_back(std::move(output));
      it = cells_.erase(it);
    }
  }

  [[nodiscard]] std::size_t open_cells() const { return cells_.size(); }

 private:
  struct Cell {
    std::uint64_t start_us = 0;
    std::uint64_t events = 0;
    std::unique_ptr<Accumulator> acc;
  };
  WindowSpec spec_;
  AccumulatorFactory factory_;
  std::map<std::pair<std::uint64_t, std::uint64_t>, Cell> cells_;
  std::uint64_t watermark_ = 0;
};

struct FoldCase {
  const char* name;
  WindowSpec spec;
  friend void PrintTo(const FoldCase& c, std::ostream* os) { *os << c.name; }
};

class FlatCellStoreTest : public ::testing::TestWithParam<FoldCase> {};

TEST_P(FlatCellStoreTest, MatchesOrderedMapReference) {
  const WindowSpec spec = GetParam().spec;
  const std::uint64_t slide = spec.effective_slide_us();
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    Rng rng(seed);
    WindowedOperator op("ref", "aq", spec, mean_accumulator());
    MapReferenceOperator ref(spec, mean_accumulator());
    // Sparse 64-bit keys; each phase draws from a sliding subset of the
    // pool, so keys go quiet (their slots recycle) and new ones appear.
    std::vector<std::uint64_t> pool(48);
    for (std::uint64_t& key : pool) key = rng.next();
    std::uint64_t frontier = spec.size_us;
    std::size_t folded = 0;
    std::size_t emitted = 0;
    for (int i = 0; i < 6000; ++i) {
      const std::size_t phase = static_cast<std::size_t>(i / 500);
      const std::uint64_t key = pool[(phase * 4 + rng.uniform_int(16)) %
                                     pool.size()];
      // Mostly in order; 1 in 300 jumps the frontier past whole windows.
      frontier += rng.uniform_int(i % 300 == 299 ? 6 * spec.size_us
                                                 : slide / 4 + 1);
      std::uint64_t t = frontier;
      const double u = rng.uniform();
      if (u < 0.01) {  // late: behind the lateness bound
        t -= std::min(t, spec.allowed_lateness_us + slide +
                             rng.uniform_int(spec.size_us));
      } else if (u < 0.11) {  // out of order within the bound
        t -= std::min(t, rng.uniform_int(spec.allowed_lateness_us + 1));
      }
      const Event event = make_event("aq", key, t, rng.uniform(0.0, 100.0));
      const bool took = op.offer(event);
      ASSERT_EQ(took, ref.offer(event)) << "seed " << seed << " event " << i;
      folded += took ? 1 : 0;
      std::vector<WindowOutput> got;
      std::vector<WindowOutput> want;
      const std::uint64_t watermark =
          frontier > spec.allowed_lateness_us
              ? frontier - spec.allowed_lateness_us
              : 0;
      op.advance_watermark(watermark, &got);
      ref.advance_watermark(watermark, &want);
      ASSERT_EQ(got, want) << "seed " << seed << " event " << i;
      ASSERT_EQ(op.open_cells(), ref.open_cells());
      emitted += got.size();
    }
    std::vector<WindowOutput> got;
    std::vector<WindowOutput> want;
    op.advance_watermark(frontier + 2 * spec.size_us, &got);
    ref.advance_watermark(frontier + 2 * spec.size_us, &want);
    EXPECT_EQ(got, want);
    emitted += got.size();
    EXPECT_EQ(op.open_cells(), 0u);
    EXPECT_EQ(op.stats().windows_closed, emitted);
    EXPECT_EQ(op.stats().events_in, folded);
    EXPECT_GT(op.stats().late_dropped, 0u);
    EXPECT_GT(emitted, 1000u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Specs, FlatCellStoreTest,
    ::testing::Values(
        FoldCase{"sliding", {WindowKind::kSliding, 1000, 100, 200}},
        FoldCase{"sliding_uneven", {WindowKind::kSliding, 1000, 300, 150}},
        FoldCase{"tumbling", {WindowKind::kTumbling, 500, 0, 100}},
        FoldCase{"tumbling_no_lateness", {WindowKind::kTumbling, 400, 0, 0}}),
    [](const ::testing::TestParamInfo<FoldCase>& info) {
      return std::string(info.param.name);
    });

// ---- engine + lateness ----------------------------------------------------

TEST(StreamEngine, AllowedLatenessHoldsWindowsOpen) {
  EngineConfig config;
  StreamEngine engine(config);
  WindowSpec spec;
  spec.size_us = 1000;
  spec.allowed_lateness_us = 500;
  engine.add_operator(std::make_unique<WindowedOperator>(
      "count", "aq", spec, count_accumulator()));
  auto session = engine.subscribe("t0", "aq");
  ASSERT_TRUE(session.ok());
  engine.start();
  ASSERT_TRUE(engine.ingest(make_event("aq", 0, 100, 1.0)).ok());
  // Frontier 1200 − lateness 500 = watermark 700 < 1000: window open,
  // and the trailing event at 900 still folds.
  ASSERT_TRUE(engine.ingest(make_event("aq", 0, 1200, 1.0)).ok());
  ASSERT_TRUE(engine.ingest(make_event("aq", 0, 900, 1.0)).ok());
  // Frontier 2000 → watermark 1500: [0,1000) closes holding t=100 AND
  // the late-but-inside-lateness t=900 (2 events, not 1).
  ASSERT_TRUE(engine.ingest(punctuation("aq", 2000)).ok());
  engine.flush();
  auto deliveries = session.value()->drain();
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0].output.events, 2u);
  engine.stop();
}

// ---- sessions -------------------------------------------------------------

TEST(StreamSession, DropsOldestWhenFullAndCounts) {
  obs::Registry registry;
  SessionConfig config;
  config.queue_capacity = 2;
  StreamSession session(1, "tenant-a", "aq", config, &registry);
  for (int i = 0; i < 4; ++i) {
    WindowOutput output;
    output.window_end_us = 1000u * (i + 1);
    session.push(Delivery{output, 0});
  }
  EXPECT_EQ(session.queued(), 2u);
  EXPECT_EQ(session.stats().dropped, 2u);
  EXPECT_EQ(registry.counter("stream.session.dropped",
                             {{"tenant", "tenant-a"}})
                ->value(),
            2u);
  // The survivors are the two FRESHEST outputs.
  auto deliveries = session.drain();
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_EQ(deliveries[0].output.window_end_us, 3000u);
  EXPECT_EQ(deliveries[1].output.window_end_us, 4000u);
}

TEST(StreamSession, AckSuppressesReplayedWindows) {
  StreamSession session(1, "t", "aq", SessionConfig{}, nullptr);
  WindowOutput output;
  output.window_end_us = 1000;
  session.push(Delivery{output, 0});
  session.ack(1000);
  session.push(Delivery{output, 0});  // replay duplicate
  output.window_end_us = 2000;
  session.push(Delivery{output, 0});  // genuinely new
  auto deliveries = session.drain();
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_EQ(deliveries[1].output.window_end_us, 2000u);
  EXPECT_EQ(session.stats().suppressed, 1u);
  // Acks are monotone.
  session.ack(500);
  EXPECT_EQ(session.acked_watermark_us(), 1000u);
}

TEST(StreamEngine, SubscribeExhaustsAtCapacity) {
  EngineConfig config;
  config.max_sessions = 2;
  StreamEngine engine(config);
  WindowSpec spec;
  engine.add_operator(std::make_unique<WindowedOperator>(
      "count", "aq", spec, count_accumulator()));
  EXPECT_TRUE(engine.subscribe("a", "aq").ok());
  EXPECT_TRUE(engine.subscribe("b", "aq").ok());
  auto third = engine.subscribe("c", "aq");
  ASSERT_FALSE(third.ok());
  EXPECT_EQ(third.status().code(), StatusCode::kResourceExhausted);
  auto unknown = engine.subscribe("a", "no-such-topic");
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);
}

// ---- ingestor -------------------------------------------------------------

TEST(Ingestor, TwoLanePriorityAndRejection) {
  IngestorConfig config;
  config.queue_capacity = 3;
  Ingestor ingestor(config);
  Event tp = make_event("aq", 0, 1, 0.0);
  Event lc = make_event("aq", 0, 2, 0.0);
  lc.sla = serve::SlaClass::kLatencyCritical;
  ASSERT_TRUE(ingestor.offer(tp).ok());
  ASSERT_TRUE(ingestor.offer(tp).ok());
  ASSERT_TRUE(ingestor.offer(lc).ok());
  const Status full = ingestor.offer(tp);
  ASSERT_FALSE(full.ok());
  EXPECT_EQ(full.code(), StatusCode::kResourceExhausted);
  // The latency-critical event jumps both earlier bulk events.
  std::vector<Event> taken;
  ASSERT_EQ(ingestor.take_all(&taken), 3u);
  EXPECT_EQ(taken[0].event_time_us, 2u);
  EXPECT_EQ(taken[1].event_time_us, 1u);
  EXPECT_EQ(ingestor.stats().admitted, 3u);
  EXPECT_EQ(ingestor.stats().rejected, 1u);
}

TEST(Ingestor, FullQueueRejectionNamesTopicAndCounts) {
  obs::Registry registry;
  IngestorConfig config;
  config.queue_capacity = 2;
  Ingestor ingestor(config, &registry);
  ASSERT_TRUE(ingestor.offer(make_event("aq", 0, 1, 0.0)).ok());
  ASSERT_TRUE(ingestor.offer(make_event("traffic", 0, 2, 0.0)).ok());
  for (const std::string topic : {"traffic", "aq", "traffic"}) {
    const Status full = ingestor.offer(make_event(topic, 0, 3, 0.0));
    ASSERT_EQ(full.code(), StatusCode::kResourceExhausted);
    EXPECT_NE(full.message().find("event on '" + topic + "'"),
              std::string::npos)
        << full.message();
  }
  EXPECT_EQ(ingestor.stats().admitted, 2u);
  EXPECT_EQ(ingestor.stats().rejected, 3u);
  EXPECT_EQ(registry.counter("stream.ingest.rejected")->value(), 3u);
  EXPECT_EQ(registry.counter("stream.ingest.admitted")->value(), 2u);
  EXPECT_EQ(ingestor.pending(), 2u);
}

TEST(Ingestor, WalRoundtripPreservesOrderAndPunctuation) {
  TempDir dir("wal_roundtrip");
  std::vector<Event> in;
  {
    IngestorConfig config;
    config.wal_dir = dir.path();
    config.wal.sync_every = 1;
    Ingestor ingestor(config);
    in.push_back(make_event("aq", 7, 100, 1.5));
    in.push_back(make_event("traffic", 3, 200, 2.5));
    in.push_back(punctuation("aq", 300));
    Event seeded = make_event("aq", 9, 400, 3.5);
    seeded.seed = 0xDEADBEEFULL;
    in.push_back(seeded);
    for (const Event& event : in) ASSERT_TRUE(ingestor.offer(event).ok());
    ingestor.close();
  }
  // Topic ids were assigned first-seen: aq=0, traffic=1.
  std::vector<Event> out;
  const std::uint64_t n = Ingestor::replay(
      dir.path(), {"aq", "traffic"},
      [&](const Event& event) { out.push_back(event); });
  ASSERT_EQ(n, in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(out[i].topic, in[i].topic) << i;
    EXPECT_EQ(out[i].key, in[i].key) << i;
    EXPECT_EQ(out[i].event_time_us, in[i].event_time_us) << i;
    EXPECT_EQ(out[i].value, in[i].value) << i;
    EXPECT_EQ(out[i].seed, in[i].seed) << i;
    EXPECT_EQ(out[i].punctuation, in[i].punctuation) << i;
  }
}

// The ingest journal's on-disk frames, pinned byte for byte: a change to
// the event record layout must show up here as a deliberate re-baseline.
using storage::CatalogLog;
using storage::Env;
using storage::FaultEnv;
using storage::kRecordFrameBytes;

std::string to_hex(const std::string& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xF]);
  }
  return out;
}

TEST(Format, GoldenIngestorJournalIsPinned) {
  TempDir dir("golden_journal");
  FaultEnv fenv(Env::posix());  // no rules: a pass-through Env
  {
    stream::IngestorConfig config;
    config.wal_dir = dir.path();
    config.wal.sync_every = 1;
    stream::Ingestor ingestor(config, nullptr, &fenv);
    stream::Event reading;
    reading.topic = "aq";
    reading.key = 7;
    reading.event_time_us = 100;
    reading.value = 42.5;
    reading.seed = 0x1234;
    stream::Event other = reading;
    other.topic = "traffic";
    other.key = 3;
    other.event_time_us = 200;
    other.value = -1.0;
    other.sla = serve::SlaClass::kLatencyCritical;
    stream::Event heartbeat;
    heartbeat.topic = "aq";
    heartbeat.event_time_us = 300;
    heartbeat.punctuation = true;
    ASSERT_TRUE(ingestor.offer(reading).ok());
    ASSERT_TRUE(ingestor.offer(other).ok());
    ASSERT_TRUE(ingestor.offer(heartbeat).ok());
    ingestor.close();
  }
  const std::string journal =
      fenv.read_file(CatalogLog::log_path(dir.path())).value();
  ASSERT_EQ(journal.size(), 3 * kRecordFrameBytes);
  EXPECT_EQ(to_hex(journal.substr(0, kRecordFrameBytes)),
            "2d000000" "4c10ccdf"
            "02" "0100000000000000" "0700000000000000" "00000000"
            "6400000000000000" "3412000000000000" "0000000000404540");
  EXPECT_EQ(to_hex(journal.substr(kRecordFrameBytes, kRecordFrameBytes)),
            "2d000000" "216c1f54"
            "02" "0200000000000000" "0300000000000000" "01000000"
            "c800000000000000" "3412000000000000" "000000000000f0bf");
  EXPECT_EQ(to_hex(journal.substr(2 * kRecordFrameBytes)),
            "2d000000" "ea38b07a"
            "08" "0300000000000000" "0000000000000000" "00000000"
            "2c01000000000000" "0000000000000000" "0000000000000000");
}

// ---- app operators --------------------------------------------------------

TEST(Operators, PlumeExceedanceFraction) {
  WindowSpec spec;
  spec.size_us = 1000;
  auto op = make_plume_exceedance_operator("aq", spec, /*limit=*/50.0);
  op->offer(make_event("aq", 0, 100, 80.0));   // exceeds
  op->offer(make_event("aq", 0, 200, 20.0));
  op->offer(make_event("aq", 0, 300, 60.0));   // exceeds
  op->offer(make_event("aq", 0, 400, 40.0));
  std::vector<WindowOutput> out;
  op->advance_watermark(1000, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0].value, 0.5);
  EXPECT_EQ(out[0].events, 4u);
}

TEST(Operators, PtdrRerouteSwitchesOffCongestedRoute) {
  auto network = std::make_shared<apps::RoadNetwork>(
      apps::RoadNetwork::make_grid(4, 4, /*seed=*/7));
  WindowSpec spec;
  spec.size_us = 1000;
  PtdrRerouteConfig config;
  config.reroute_threshold = 0.02;
  const std::size_t from = 0;
  const std::size_t to = network->num_nodes() - 1;
  PtdrRerouteOperator op("reroute", "traffic", spec, network, {{from, to}},
                         config);
  const std::vector<std::size_t> initial = op.route(0);
  ASSERT_FALSE(initial.empty());
  // Crawl speeds on every segment of the current route.
  for (const std::size_t seg : initial) {
    op.offer(make_event("traffic", seg, 100, 2.0));
  }
  std::vector<WindowOutput> out;
  op.advance_watermark(1000, &out);
  ASSERT_EQ(out.size(), 1u);  // one output per monitored pair
  EXPECT_GE(op.rerouted(), 1u);
  EXPECT_NE(op.route(0), initial);
  EXPECT_GT(out[0].value, 0.0);  // expected travel seconds of the choice
}

// ---- determinism (TEST_P: eviction policies × same-seed reruns) -----------

/// One full pipeline run: seeded arrival schedule → engine (single lane,
/// so fold order == ingest order) → subscriber; returns the fingerprint
/// of the delivered window outputs. `policy` drives a concurrent data
/// plane + pub/sub publisher whose cache behavior must NOT leak into the
/// window math.
std::uint64_t pipeline_fingerprint(data::EvictionPolicy policy,
                                   std::uint64_t seed) {
  // Concurrent data-plane traffic under the given eviction policy.
  platform::Simulator sim;
  data::PlaneConfig plane_config;
  plane_config.num_nodes = 2;
  plane_config.cache_bytes = 64 * 1024;
  plane_config.eviction = policy;
  data::DataPlane plane(sim, plane_config);
  ShardPublisher publisher(plane);
  publisher.subscribe(1, 1);
  for (int i = 0; i < 8; ++i) {
    publisher.publish(1, 32 * 1024, /*producer=*/0);
    sim.run();
  }

  EngineConfig config;
  StreamEngine engine(config);
  WindowSpec spec;
  spec.kind = WindowKind::kSliding;
  spec.size_us = 40'000;
  spec.slide_us = 20'000;
  spec.allowed_lateness_us = 5'000;
  engine.add_operator(std::make_unique<WindowedOperator>(
      "mean", "aq", spec, mean_accumulator()));
  auto session = engine.subscribe("tenant", "aq");
  EXPECT_TRUE(session.ok());
  engine.start();

  serve::EventStreamSpec stream_spec;
  stream_spec.topics = {"aq"};
  stream_spec.clients = 3;
  stream_spec.events_per_s = 20'000.0;
  stream_spec.duration = std::chrono::milliseconds(200);
  stream_spec.keys_per_topic = 4;
  stream_spec.seed = seed;
  const auto report = serve::run_event_stream(
      [&](const serve::EventArrival& arrival) {
        return engine.ingest(
            make_event(arrival.topic, arrival.key, arrival.event_time_us,
                       arrival.value));
      },
      stream_spec);
  EXPECT_GT(report.admitted, 0u);
  engine.ingest(punctuation("aq", 1'000'000));
  engine.flush();
  std::vector<WindowOutput> outputs;
  for (const Delivery& d : session.value()->drain()) {
    outputs.push_back(d.output);
  }
  engine.stop();
  EXPECT_GT(outputs.size(), 0u);
  return fingerprint(outputs);
}

class StreamDeterminism
    : public ::testing::TestWithParam<data::EvictionPolicy> {};

TEST_P(StreamDeterminism, ByteIdenticalAcrossPoliciesAndReruns) {
  const std::uint64_t seed = 1234;
  const std::uint64_t first = pipeline_fingerprint(GetParam(), seed);
  const std::uint64_t second = pipeline_fingerprint(GetParam(), seed);
  EXPECT_EQ(first, second) << "same-seed rerun diverged";

  // Cross-policy: every parameterization must produce the same bytes
  // (the cache policy can move data, never change analytics).
  static std::map<std::uint64_t, std::uint64_t> baseline;
  auto [it, inserted] = baseline.emplace(seed, first);
  if (!inserted) {
    EXPECT_EQ(first, it->second) << "fingerprint depends on eviction policy";
  }

  // A different seed must (overwhelmingly) give different bytes —
  // guards against a fingerprint that ignores its input.
  EXPECT_NE(pipeline_fingerprint(GetParam(), seed + 1), first);
}

INSTANTIATE_TEST_SUITE_P(Policies, StreamDeterminism,
                         ::testing::Values(data::EvictionPolicy::kLru,
                                           data::EvictionPolicy::kLfu,
                                           data::EvictionPolicy::kCostAware),
                         [](const auto& info) {
                           std::string name(data::to_string(info.param));
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return name;
                         });

// ---- pub/sub delta propagation --------------------------------------------

TEST(ShardPublisher, DeltaPushWarmsSubscriberCacheAtNewVersion) {
  platform::Simulator sim;
  data::PlaneConfig config;
  config.num_nodes = 3;
  config.cache_bytes = 8.0 * 1024 * 1024;
  data::DataPlane plane(sim, config);
  ShardPublisher publisher(plane);

  const data::ObjectId object = 42;
  publisher.subscribe(object, /*node=*/2);
  ASSERT_TRUE(publisher.publish(object, 1024.0 * 1024, /*producer=*/0).ok());
  sim.run();  // delta transfers arrive

  const data::DataObject* obj = plane.find(object);
  ASSERT_NE(obj, nullptr);
  // The subscriber's cache answers at the CURRENT version — no refetch.
  for (const data::ShardKey& key : obj->keys()) {
    EXPECT_TRUE(plane.cache(2).contains(key)) << key.to_string();
  }
  const PublishStats& stats = publisher.stats();
  EXPECT_EQ(stats.publishes, 1u);
  EXPECT_GT(stats.deltas_pushed, 0u);
  EXPECT_EQ(stats.deltas_arrived, stats.deltas_pushed);
  EXPECT_LT(stats.delta_bytes, stats.full_bytes);

  // Republishing bumps the version; the old cached keys go stale and
  // the push re-warms at the new version.
  const std::uint64_t old_version = obj->version;
  ASSERT_TRUE(publisher.publish(object, 1024.0 * 1024, /*producer=*/0).ok());
  sim.run();
  obj = plane.find(object);
  ASSERT_NE(obj, nullptr);
  EXPECT_GT(obj->version, old_version);
  for (const data::ShardKey& key : obj->keys()) {
    EXPECT_TRUE(plane.cache(2).contains(key));
  }
}

// ---- multi-producer loss-freedom (the TSan gate exercises this) -----------

TEST(StreamEngine, ConcurrentProducersLoseNothingAdmitted) {
  EngineConfig config;
  config.ingest.queue_capacity = 1 << 16;
  StreamEngine engine(config);
  WindowSpec spec;
  spec.size_us = 1'000'000;
  engine.add_operator(std::make_unique<WindowedOperator>(
      "count", "aq", spec, count_accumulator()));
  auto session = engine.subscribe("t", "aq");
  ASSERT_TRUE(session.ok());
  engine.start();

  constexpr int kProducers = 4;
  constexpr int kPerProducer = 2000;
  std::atomic<std::uint64_t> admitted{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        Event event = make_event(
            "aq", static_cast<std::uint64_t>(p),
            1 + static_cast<std::uint64_t>(i), 1.0);
        if (engine.ingest(std::move(event)).ok()) {
          admitted.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : producers) t.join();
  engine.ingest(punctuation("aq", 2'000'000));
  engine.flush();
  EXPECT_EQ(engine.stats().events_processed, admitted.load());
  // Every admitted event landed in some window.
  std::uint64_t folded = 0;
  for (const Delivery& d : session.value()->drain()) {
    folded += d.output.events;
  }
  EXPECT_EQ(folded, admitted.load());
  engine.stop();
}

/// Records the event time of every event folded, in fold order. The first
/// offer() blocks until release() — it pins the pump on one event while
/// the test arranges the queue behind it.
class GatedRecorder final : public Operator {
 public:
  GatedRecorder() : Operator("recorder", "aq") {}

  bool offer(const Event& event) override {
    if (!gated_) {
      gated_ = true;
      entered_.count_down();
      released_.wait();
    }
    std::lock_guard<std::mutex> lock(mu_);
    folded_.push_back(event.event_time_us);
    return true;
  }
  void advance_watermark(std::uint64_t watermark_us,
                         std::vector<WindowOutput>*) override {
    watermark_us_ = std::max(watermark_us_, watermark_us);
  }
  [[nodiscard]] std::uint64_t watermark_us() const override {
    return watermark_us_;
  }
  [[nodiscard]] std::uint64_t allowed_lateness_us() const override {
    return 0;
  }
  [[nodiscard]] std::uint64_t max_window_span_us() const override {
    return 0;
  }
  void reset() override {}
  [[nodiscard]] const OperatorStats& stats() const override { return stats_; }

  /// Blocks until the pump is inside the first offer().
  void wait_entered() { entered_.wait(); }
  void release() { released_.count_down(); }
  [[nodiscard]] std::vector<std::uint64_t> folded() const {
    std::lock_guard<std::mutex> lock(mu_);
    return folded_;
  }

 private:
  bool gated_ = false;  // pump thread only
  std::latch entered_{1};
  std::latch released_{1};
  mutable std::mutex mu_;
  std::vector<std::uint64_t> folded_;
  std::uint64_t watermark_us_ = 0;
  OperatorStats stats_;
};

TEST(StreamEngine, FlushReturnsWhenKilledWithEventsQueued) {
  StreamEngine engine(EngineConfig{});
  auto recorder = std::make_unique<GatedRecorder>();
  GatedRecorder* gate = recorder.get();
  ASSERT_TRUE(engine.add_operator(std::move(recorder)).ok());
  engine.start();
  for (std::uint64_t t = 1; t <= 8; ++t) {
    ASSERT_TRUE(engine.ingest(make_event("aq", 0, t, 1.0)).ok());
  }
  gate->wait_entered();  // the pump holds event 1; the rest wait behind it

  std::atomic<bool> flushed{false};
  std::thread flusher([&] {
    engine.flush();
    flushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  // kill() blocks joining the pump, which is stuck in the operator; the
  // latch opens once kill() has had time to raise the stop flag.
  std::thread killer([&] { engine.kill(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  gate->release();
  killer.join();

  const auto released = serve::Clock::now();
  while (!flushed.load() &&
         serve::Clock::now() - released < std::chrono::seconds(1)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(flushed.load()) << "flush() still blocked 1 s after kill()";
  // A restarted pump folds the stranded events, so a hung flush() fails
  // the test instead of hanging it.
  if (!flushed.load()) engine.start();
  flusher.join();
  engine.kill();
}

TEST(StreamEngine, LatencyCriticalEventFoldsBeforeQueuedThroughput) {
  StreamEngine engine(EngineConfig{});
  auto recorder = std::make_unique<GatedRecorder>();
  GatedRecorder* gate = recorder.get();
  ASSERT_TRUE(engine.add_operator(std::move(recorder)).ok());
  engine.start();
  ASSERT_TRUE(engine.ingest(make_event("aq", 0, 1, 1.0)).ok());
  gate->wait_entered();  // the queue is empty behind the pinned event
  for (std::uint64_t t = 2; t <= 4; ++t) {
    ASSERT_TRUE(engine.ingest(make_event("aq", 0, t, 1.0)).ok());
  }
  Event urgent = make_event("aq", 0, 5, 1.0);
  urgent.sla = serve::SlaClass::kLatencyCritical;
  ASSERT_TRUE(engine.ingest(urgent).ok());
  gate->release();
  engine.flush();
  EXPECT_EQ(gate->folded(), (std::vector<std::uint64_t>{1, 5, 2, 3, 4}));
  EXPECT_EQ(engine.stats().events_processed, 5u);
  engine.stop();
}

TEST(StreamEngine, IngestAfterKillStillAdmits) {
  EngineConfig config;
  config.ingest.queue_capacity = 4;
  StreamEngine engine(config);
  WindowSpec spec;
  ASSERT_TRUE(engine
                  .add_operator(std::make_unique<WindowedOperator>(
                      "count", "aq", spec, count_accumulator()))
                  .ok());
  engine.start();
  ASSERT_TRUE(engine.ingest(make_event("aq", 0, 1, 1.0)).ok());
  engine.flush();
  engine.kill();
  EXPECT_FALSE(engine.running());
  // Fail-stop does not close admission: events still queue (and are
  // journaled when a WAL is set) until the bounded queue fills.
  for (std::uint64_t t = 2; t <= 5; ++t) {
    EXPECT_TRUE(engine.ingest(make_event("aq", 0, t, 1.0)).ok()) << t;
  }
  EXPECT_EQ(engine.ingest(make_event("aq", 0, 6, 1.0)).code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(engine.ingestor().stats().admitted, 5u);
  EXPECT_EQ(engine.ingestor().pending(), 4u);
  engine.flush();  // not running: returns at once
  EXPECT_EQ(engine.stats().events_processed, 1u);
}

// ---- crash-mid-window failover replay -------------------------------------

struct FailoverRun {
  std::vector<WindowOutput> delivered;
  std::uint64_t fp = 0;
};

/// Drives one topic through the fabric; when `crash_at` is nonzero the
/// home node fail-stops after the event whose index equals it (mid-
/// window) and the fabric re-homes the topic before the rest of the
/// schedule flows. The client acks after every delivery.
FailoverRun run_failover_scenario(const std::string& wal_root,
                                  std::size_t crash_at) {
  FabricConfig config;
  config.num_nodes = 2;
  config.wal_root = wal_root;
  config.engine.ingest.wal.sync_every = 1;
  StreamFabric fabric(config);
  WindowSpec spec;
  spec.size_us = 10'000;
  EXPECT_TRUE(fabric
                  .register_topic("aq",
                                  [spec] {
                                    return std::make_unique<WindowedOperator>(
                                        "mean", "aq", spec,
                                        mean_accumulator());
                                  })
                  .ok());
  fabric.start();
  auto session = fabric.subscribe("tenant", "aq");
  EXPECT_TRUE(session.ok());
  const std::size_t home_before = fabric.home_of("aq").value();

  FailoverRun run;
  auto consume = [&] {
    for (const Delivery& d : session.value()->drain()) {
      run.delivered.push_back(d.output);
      session.value()->ack(d.output.window_end_us);
    }
  };

  // 60 events, one per ms: six full windows plus a seventh in flight.
  Rng rng(99);
  for (std::size_t i = 0; i < 60; ++i) {
    Event event = make_event("aq", i % 3, (i + 1) * 1000, rng.uniform(0, 50));
    EXPECT_TRUE(fabric.ingest(std::move(event)).ok());
    if ((i + 1) % 10 == 0) {
      fabric.flush();
      consume();
    }
    if (crash_at != 0 && i + 1 == crash_at) {
      fabric.flush();
      consume();
      fabric.crash(home_before);
      EXPECT_EQ(fabric.handle_failover(), std::vector<std::string>{"aq"});
      EXPECT_NE(fabric.home_of("aq").value(), home_before);
    }
  }
  Event final_punctuation = punctuation("aq", 100'000);
  EXPECT_TRUE(fabric.ingest(std::move(final_punctuation)).ok());
  fabric.flush();
  consume();
  fabric.stop();
  run.fp = fingerprint(run.delivered);
  return run;
}

TEST(StreamFabric, CrashMidWindowReplayIsByteIdentical) {
  TempDir base("failover");
  const std::string baseline_root = base.path() + "/baseline";
  const std::string crashed_root = base.path() + "/crashed";
  fs::create_directories(baseline_root);
  fs::create_directories(crashed_root);

  const FailoverRun baseline =
      run_failover_scenario(baseline_root, /*crash_at=*/0);
  // Crash at event 35: window [30000,40000) is mid-flight.
  const FailoverRun crashed =
      run_failover_scenario(crashed_root, /*crash_at=*/35);

  ASSERT_GT(baseline.delivered.size(), 0u);
  ASSERT_EQ(baseline.delivered.size(), crashed.delivered.size());
  EXPECT_EQ(baseline.fp, crashed.fp)
      << "client-visible outputs diverged across crash+failover replay";
}

TEST(StreamFabric, IngestUnavailableWhileHomeDown) {
  FabricConfig config;
  config.num_nodes = 2;
  StreamFabric fabric(config);
  WindowSpec spec;
  ASSERT_TRUE(fabric
                  .register_topic("aq",
                                  [spec] {
                                    return std::make_unique<WindowedOperator>(
                                        "count", "aq", spec,
                                        count_accumulator());
                                  })
                  .ok());
  fabric.start();
  const std::size_t home = fabric.home_of("aq").value();
  fabric.crash(home);
  const Status status = fabric.ingest(make_event("aq", 0, 100, 1.0));
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  fabric.handle_failover();
  EXPECT_TRUE(fabric.ingest(make_event("aq", 0, 200, 1.0)).ok());
  fabric.stop();
}

// ---- event-stream loadgen (satellite) -------------------------------------

TEST(EventStreamLoadgen, ScheduleIsDeterministicAndOrdered) {
  serve::EventStreamSpec spec;
  spec.topics = {"aq", "traffic"};
  spec.clients = 3;
  spec.events_per_s = 5000.0;
  spec.duration = std::chrono::milliseconds(100);
  spec.seed = 7;
  const auto a = serve::generate_event_arrivals(spec);
  const auto b = serve::generate_event_arrivals(spec);
  ASSERT_GT(a.size(), 100u);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].event_time_us, b[i].event_time_us);
    EXPECT_EQ(a[i].key, b[i].key);
    EXPECT_EQ(a[i].seed, b[i].seed);
    if (i > 0) {
      EXPECT_GE(a[i].event_time_us, a[i - 1].event_time_us);
    }
  }
  // All clients contributed.
  std::set<int> clients;
  for (const auto& arrival : a) clients.insert(arrival.client);
  EXPECT_EQ(clients.size(), 3u);

  spec.seed = 8;
  const auto c = serve::generate_event_arrivals(spec);
  bool differs = c.size() != a.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a[i].event_time_us != c[i].event_time_us || a[i].key != c[i].key;
  }
  EXPECT_TRUE(differs) << "seed does not drive the schedule";
}

TEST(EventStreamLoadgen, BurstModeClustersArrivals) {
  serve::EventStreamSpec spec;
  spec.topics = {"aq"};
  spec.clients = 1;
  spec.events_per_s = 10'000.0;
  spec.duration = std::chrono::milliseconds(100);
  spec.arrival = serve::EventStreamSpec::Arrival::kBurst;
  spec.burst_len = 16;
  const auto schedule = serve::generate_event_arrivals(spec);
  ASSERT_GT(schedule.size(), 32u);
  // Intra-burst gaps are a (1 + idle_factor)× compression of the base
  // gap; inter-burst gaps are idle_factor × burst span. Count both.
  std::size_t tight = 0, wide = 0;
  for (std::size_t i = 1; i < schedule.size(); ++i) {
    const std::uint64_t gap =
        schedule[i].event_time_us - schedule[i - 1].event_time_us;
    if (gap <= 40) ++tight;
    if (gap >= 1000) ++wide;
  }
  EXPECT_GT(tight, schedule.size() / 2);
  EXPECT_GT(wide, 0u);
}

}  // namespace
}  // namespace everest::stream
