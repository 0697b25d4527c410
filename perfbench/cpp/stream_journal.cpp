// stream_journal: a WAL-journaled stream::StreamEngine with a sliding
// plume-exceedance operator and a tumbling count operator on one topic.
// Keys are Zipf-skewed; a share of events arrives out of order (within
// the allowed lateness) and a smaller share late (past it). One
// subscriber session polls and acks on its own thread. Each of a few
// rounds sets up a fresh pipeline and runs two phases on it:
//   paced   — open loop at a fixed event rate: emit latency;
//   burst   — unpaced ingest from one producer: sustained fold rate;
// then recover: kill() the last pipeline, and fresh engines on its WAL
// replay it.
// The outputs delivered live, the outputs of each replay, and a
// single-threaded reference fold of the same event sequence through the
// same operators must all have the same stream::fingerprint.
//
// The WAL is written through an in-memory storage::Env: the stand-in for
// a RAM-backed WAL directory, which keeps a shared disk's flush and
// journal stalls out of the figures (and every write inside the run). The
// log's framing, group-commit and replay code all run; appends are memory
// copies and fsync is a no-op, whose calls still show, as a count, in
// storage.syncs_per_kevent.
#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "obs/registry.hpp"
#include "storage/env.hpp"
#include "storage/log.hpp"
#include "stream/engine.hpp"
#include "stream/operators.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace everest;

const std::string kTopic = "aq";
constexpr std::size_t kKeys = 64;
constexpr double kKeySkew = 1.1;
/// Event-time spacing of in-order events through warm-up and the paced
/// phase.
constexpr std::uint64_t kStepUs = 100;
/// Wall spacing of the paced phase's sends (50k events/s): event time
/// runs 5x faster than the wall clock there, so windows close often.
constexpr std::uint64_t kPacedGapUs = 20;
/// Spacing in the burst: denser, so a long burst stays a modest number
/// of windows (and of outputs to hold and check).
constexpr std::uint64_t kBurstStepUs = 10;
constexpr double kOutOfOrder = 0.10;  ///< trail the frontier, still folded
constexpr double kLate = 0.01;        ///< trail past the allowed lateness
constexpr std::uint64_t kLatenessUs = 20'000;
constexpr double kLimitUgm3 = 50.0;
constexpr std::size_t kWarmupEvents = 20'000;
constexpr double kPacedShare = 0.4;  ///< of --seconds, the rest is burst
constexpr std::size_t kBurstPerSecond = 250'000;
/// Upper bound of one journaled event's WAL frame (53 bytes measured).
constexpr std::size_t kWalFrameBytes = 64;
/// The paced and burst phases run as this many rounds, each on a fresh
/// pipeline (new engine, pump and subscriber threads) over the same
/// events; the latency and rate figures are medians over the rounds.
/// Thread placement differs per process and moved the emit latency of a
/// single pipeline by up to 2x between runs of identical code.
constexpr int kRounds = 5;
constexpr int kReplays = 3;
/// Poll spans recorded in the traced run: one per this many deliveries.
constexpr std::uint64_t kPollSpanEvery = 16;
constexpr std::uint64_t kIngestSpanEvery = 64;

stream::WindowSpec plume_spec() {
  return {stream::WindowKind::kSliding, 200'000, 20'000, kLatenessUs};
}
stream::WindowSpec count_spec() {
  return {stream::WindowKind::kTumbling, 50'000, 0, kLatenessUs};
}

/// An in-memory filesystem behind the storage layer's Env boundary (see
/// the header comment). Thread-safe.
class MemEnv final : public storage::Env {
 public:
  Result<std::unique_ptr<storage::WritableFile>> open_append(
      const std::string& path) override {
    std::lock_guard<std::mutex> lock(mu_);
    return std::unique_ptr<storage::WritableFile>(
        std::make_unique<File>(this, &files_[path]));
  }
  Result<std::unique_ptr<storage::WritableFile>> open_trunc(
      const std::string& path) override {
    std::lock_guard<std::mutex> lock(mu_);
    std::string* data = &files_[path];
    data->clear();
    return std::unique_ptr<storage::WritableFile>(
        std::make_unique<File>(this, data));
  }
  Result<std::string> read_file(const std::string& path) override {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = files_.find(path);
    if (it == files_.end()) return Status(NotFound(path));
    return it->second;
  }
  Status create_dirs(const std::string&) override { return OkStatus(); }
  Status rename_file(const std::string& from, const std::string& to) override {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = files_.find(from);
    if (it == files_.end()) return NotFound(from);
    files_[to] = std::move(it->second);
    files_.erase(from);
    return OkStatus();
  }
  Status remove_file(const std::string& path) override {
    std::lock_guard<std::mutex> lock(mu_);
    files_.erase(path);
    return OkStatus();
  }
  Status truncate_file(const std::string& path, std::uint64_t size) override {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = files_.find(path);
    if (it == files_.end()) return NotFound(path);
    if (size < it->second.size()) it->second.resize(size);
    return OkStatus();
  }
  Result<std::vector<std::string>> list_dir(const std::string& path) override {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::string> names;
    const std::string prefix = path + "/";
    for (const auto& [name, data] : files_) {
      if (name.rfind(prefix, 0) == 0 &&
          name.find('/', prefix.size()) == std::string::npos) {
        names.push_back(name.substr(prefix.size()));
      }
    }
    return names;
  }
  Result<std::uint64_t> free_bytes(const std::string&) override {
    return std::uint64_t{1} << 40;
  }
  bool file_exists(const std::string& path) override {
    std::lock_guard<std::mutex> lock(mu_);
    return files_.count(path) != 0;
  }

  void reserve(const std::string& path, std::size_t bytes) {
    std::lock_guard<std::mutex> lock(mu_);
    files_[path].reserve(bytes);
  }
  [[nodiscard]] double bytes(const std::string& path) {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = files_.find(path);
    return it == files_.end() ? 0.0 : static_cast<double>(it->second.size());
  }
  /// Drops every file under `dir`.
  void remove_dir(const std::string& dir) {
    std::lock_guard<std::mutex> lock(mu_);
    std::erase_if(files_, [&](const auto& file) {
      return file.first.rfind(dir + "/", 0) == 0;
    });
  }

 private:
  /// Appends into its map entry (std::map nodes never move); sync() is a
  /// no-op the log still counts.
  class File final : public storage::WritableFile {
   public:
    File(MemEnv* env, std::string* data) : env_(env), data_(data) {}
    Status append(std::string_view data) override {
      std::lock_guard<std::mutex> lock(env_->mu_);
      data_->append(data);
      return OkStatus();
    }
    Status sync() override { return OkStatus(); }
    Status close() override { return OkStatus(); }

   private:
    MemEnv* env_;
    std::string* data_;
  };

  std::mutex mu_;
  std::map<std::string, std::string> files_;  // guarded by mu_
};

MemEnv g_wal_env;

/// Both operators, in registration (= WAL topic id, = fold) order.
std::vector<std::unique_ptr<stream::Operator>> make_operators() {
  std::vector<std::unique_ptr<stream::Operator>> ops;
  ops.push_back(stream::make_plume_exceedance_operator(kTopic, plume_spec(),
                                                       kLimitUgm3));
  ops.push_back(std::make_unique<stream::WindowedOperator>(
      "count", kTopic, count_spec(), stream::count_accumulator()));
  return ops;
}

/// Compact generated event (the topic is implied).
struct Gen {
  std::uint64_t key = 0;
  std::uint64_t time_us = 0;
  double value = 0.0;
  std::uint64_t seed = 0;
  bool punctuation = false;
};

stream::Event to_event(const Gen& g) {
  stream::Event e;
  e.topic = kTopic;
  e.key = g.key;
  e.event_time_us = g.time_us;
  e.value = g.value;
  e.seed = g.seed;
  e.punctuation = g.punctuation;
  return e;
}

/// `n` events, the first `dense_from` spaced kStepUs apart and the rest
/// kBurstStepUs. In-order event i < dense_from has event time
/// (i + 1) * kStepUs, so the event that moved the frontier to such an F
/// is index F / kStepUs - 1.
std::vector<Gen> make_events(std::uint64_t seed, std::size_t n,
                             std::size_t dense_from) {
  const ZipfSampler zipf(kKeys, kKeySkew);
  Rng rng(seed);
  std::vector<Gen> events(n);
  std::uint64_t base = 0;
  for (std::size_t i = 0; i < n; ++i) {
    Gen& g = events[i];
    base += i < dense_from ? kStepUs : kBurstStepUs;
    g.key = zipf.sample(rng);
    g.value = rng.lognormal(3.6, 0.5);  // median ~37 ug/m3
    g.seed = rng.next();
    const double u = rng.uniform();
    std::uint64_t behind = 0;
    if (u < kLate) {
      behind = kLatenessUs * 2 + rng.uniform_int(std::uint64_t{100'000});
    } else if (u < kLate + kOutOfOrder) {
      behind = kStepUs + rng.uniform_int(kLatenessUs - kStepUs);
    }
    g.time_us = base > behind ? base - behind : 1;
  }
  return events;
}

/// The subscriber: polls on its own thread, records every delivery, and
/// (for the live session) acks what can no longer be re-emitted.
class Subscriber {
 public:
  /// `expected` outputs are reserved up front, so the poll thread never
  /// stalls on a reallocating copy.
  Subscriber(std::shared_ptr<stream::StreamSession> session, bool ack,
             std::size_t expected, obs::Tracer* tracer)
      : session_(std::move(session)), ack_(ack), tracer_(tracer) {
    outputs.reserve(expected);
    stamps.reserve(expected);
    thread_ = std::thread([this] { loop(); });
  }
  ~Subscriber() { stop(); }
  Subscriber(const Subscriber&) = delete;
  Subscriber& operator=(const Subscriber&) = delete;

  [[nodiscard]] std::uint64_t received() const {
    return received_.load(std::memory_order_acquire);
  }
  [[nodiscard]] stream::SessionStats session_stats() const {
    return session_->stats();
  }
  /// Waits until `total` deliveries were received, suppressed or
  /// dropped, then joins the poll thread.
  void finish(std::uint64_t total) {
    for (;;) {
      const stream::SessionStats s = session_->stats();
      if (received() + s.suppressed + s.dropped >= total) break;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    stop();
  }
  /// Spinning (the default) or blocking in poll(): the burst, which
  /// times the fold rate and not the emit latency, turns it off so the
  /// spinning thread does not take a core from the engine.
  void set_spin(bool spin) { spin_.store(spin, std::memory_order_release); }
  void stop() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
  }

  // Valid after stop().
  std::vector<stream::WindowOutput> outputs;
  /// Per delivery: the frontier it was queued at and when poll() got it.
  std::vector<std::pair<std::uint64_t, Clock::time_point>> stamps;

 private:
  /// Spins on a non-blocking poll() rather than blocking in it, so the
  /// emit latency measures the engine, not this client's wake-up.
  void loop() {
    std::uint64_t group_frontier = 0, group_max_end = 0, acked = 0;
    while (!stop_.load(std::memory_order_acquire) || session_->queued() > 0) {
      const Clock::time_point t0 = Clock::now();
      const bool spin = spin_.load(std::memory_order_acquire);
      std::optional<stream::Delivery> d = session_->poll(
          std::chrono::microseconds(spin ? 0 : 1000));
      if (!d) {
        std::this_thread::yield();
        continue;
      }
      const Clock::time_point at = Clock::now();
      const std::uint64_t n = received_.load(std::memory_order_relaxed);
      if (tracer_ != nullptr && d->trace.valid() && n % kPollSpanEvery == 0) {
        tracer_->span(obs::TimeDomain::kWall, d->trace.trace_id,
                      tracer_->next_id(), d->trace.parent_span,
                      tracer_->wall_us(t0), tracer_->wall_us(at),
                      obs::kAutoTrack, "stream.poll", "bench");
      }
      if (ack_) {
        // Outputs of one fan-out share its frontier and may close windows
        // in any order across operators; everything from earlier fan-outs
        // ended at or before this one's previous watermark, so acking it
        // can never suppress a live output.
        if (d->frontier_us != group_frontier) {
          if (group_max_end > acked) {
            acked = group_max_end;
            session_->ack(acked);
          }
          group_frontier = d->frontier_us;
        }
        group_max_end = std::max(group_max_end, d->output.window_end_us);
      }
      stamps.emplace_back(d->frontier_us, at);
      outputs.push_back(std::move(d->output));
      received_.store(n + 1, std::memory_order_release);
    }
  }

  std::shared_ptr<stream::StreamSession> session_;
  const bool ack_;
  obs::Tracer* tracer_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> spin_{true};
  std::atomic<std::uint64_t> received_{0};
  std::thread thread_;
};

stream::SessionConfig session_config() {
  stream::SessionConfig config;
  config.queue_capacity = 1 << 20;
  return config;
}

/// One engine over `wal_dir` with its registry and live subscriber.
struct Pipeline {
  obs::Registry registry;
  std::unique_ptr<stream::StreamEngine> engine;
  std::unique_ptr<Subscriber> subscriber;
  std::uint64_t retries = 0;   ///< RESOURCE_EXHAUSTED re-offers

  /// `events` and `outputs` size the journal and the subscriber's
  /// buffers, which are reserved so no timed call pays a reallocation.
  Pipeline(const std::string& wal_dir, std::size_t events,
           std::size_t outputs, obs::Tracer* tracer) {
    g_wal_env.reserve(storage::CatalogLog::log_path(wal_dir),
                      events * kWalFrameBytes);
    stream::EngineConfig config;
    config.ingest.wal_dir = wal_dir;
    config.ingest.queue_capacity = 1 << 16;
    config.tracer = tracer;
    engine =
        std::make_unique<stream::StreamEngine>(config, &registry, &g_wal_env);
    for (auto& op : make_operators()) {
      require(engine->add_operator(std::move(op)), "add_operator");
    }
    auto session = engine->subscribe("bench", kTopic, session_config());
    require(session.status(), "subscribe");
    subscriber =
        std::make_unique<Subscriber>(*session, true, outputs, tracer);
    engine->start();
  }

  /// Offers one event, re-offering on backpressure (the producer's job);
  /// returns the ingest() call time of the admitting call, in ns.
  double ingest(const Gen& g) {
    for (;;) {
      const Clock::time_point t0 = Clock::now();
      const Status st = engine->ingest(to_event(g));
      const Clock::time_point t1 = Clock::now();
      if (st.ok()) return ns_between(t0, t1);
      ++retries;
      std::this_thread::yield();
    }
  }

  std::uint64_t counter(const char* name) const {
    const obs::RegistrySnapshot snap = registry.snapshot();
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
  }
};

struct Timed {
  std::vector<double> ingest_ns;
  std::vector<double> late_us;
  std::vector<Clock::time_point> paced_sched;
  std::size_t backlog_max = 0;
  double fold_per_s = 0.0;  ///< burst events / (first ingest -> flushed)
  double flush_ms = 0.0;    ///< last burst ingest -> flush() returned
};

/// Runs paced then burst ingest of events[first, first + paced + burst)
/// and returns the timings. Spans every kIngestSpanEvery-th ingest call
/// when traced.
Timed run_phases(Pipeline& p, const std::vector<Gen>& events,
                 std::size_t first, std::size_t paced, std::size_t burst,
                 obs::Tracer* tracer) {
  Timed t;
  const auto ingest = [&](std::size_t i) {
    const Clock::time_point t0 = Clock::now();
    const double ns = p.ingest(events[i]);
    if (tracer != nullptr && i % kIngestSpanEvery == 0) {
      tracer->span(obs::TimeDomain::kWall, tracer->next_id(),
                   tracer->next_id(), 0, tracer->wall_us(t0),
                   tracer->wall_us(Clock::now()), obs::kAutoTrack,
                   "stream.ingest", "bench");
    }
    return ns;
  };
  const Clock::time_point start =
      Clock::now() + std::chrono::milliseconds(2);
  t.paced_sched.reserve(paced);
  t.late_us.reserve(paced);
  for (std::size_t i = 0; i < paced; ++i) {
    const Clock::time_point sched =
        start + std::chrono::microseconds(i * kPacedGapUs);
    t.paced_sched.push_back(sched);
    // 20 us gaps are below what a timer wake-up on the VM can hit, so
    // the producer spins; it is the one spinning thread besides the
    // subscriber.
    while (Clock::now() < sched) std::this_thread::yield();
    t.late_us.push_back(us_between(sched, Clock::now()));
    ingest(first + i);
  }
  t.ingest_ns.reserve(burst);
  p.subscriber->set_spin(false);
  const Clock::time_point b0 = Clock::now();
  for (std::size_t i = first + paced; i < first + paced + burst; ++i) {
    t.ingest_ns.push_back(ingest(i));
    if (i % 1024 == 0) {
      t.backlog_max = std::max(t.backlog_max, p.engine->ingestor().pending());
    }
  }
  const Clock::time_point b1 = Clock::now();
  {
    obs::Tracer::ScopedSpan span;
    if (tracer != nullptr) span = tracer->scoped("stream.flush", "bench");
    p.engine->flush();
  }
  const Clock::time_point b2 = Clock::now();
  t.fold_per_s = static_cast<double>(burst) / s_between(b0, b2);
  t.flush_ms = us_between(b1, b2) / 1e3;
  return t;
}

/// Ingests the closing punctuation and waits until the subscriber has
/// every delivery.
void close_all(Pipeline& p, const Gen& punctuation) {
  p.ingest(punctuation);
  p.engine->flush();
  p.subscriber->finish(p.engine->stats().deliveries);
}

/// The single-threaded baseline: the engine's fold (frontier = max event
/// time, watermark = frontier - lateness, operators in order) on this
/// thread, no queue, no journal, no session.
std::vector<stream::WindowOutput> reference_fold(const std::vector<Gen>& events,
                                                 double* seconds) {
  auto ops = make_operators();
  std::vector<stream::WindowOutput> out;
  std::uint64_t frontier = 0;
  const Clock::time_point t0 = Clock::now();
  for (const Gen& g : events) {
    const stream::Event e = to_event(g);
    frontier = std::max(frontier, e.event_time_us);
    for (auto& op : ops) {
      if (!e.punctuation) op->offer(e);
      const std::uint64_t lateness = op->allowed_lateness_us();
      op->advance_watermark(frontier > lateness ? frontier - lateness : 0,
                            &out);
    }
  }
  *seconds = s_between(t0, Clock::now());
  return out;
}

}  // namespace

void run_stream_journal(const RunOptions& options, Report* report) {
  const std::size_t paced = static_cast<std::size_t>(
      options.seconds * kPacedShare * 1e6 /
      static_cast<double>(kPacedGapUs * kRounds));
  const std::size_t burst = static_cast<std::size_t>(
      options.seconds * (1.0 - kPacedShare) * kBurstPerSecond / kRounds);
  std::vector<Gen> events =
      make_events(options.seed, kWarmupEvents + paced + burst,
                  kWarmupEvents + paced);
  // A punctuation past every window end plus the lateness closes all
  // windows, so the live run emits every output a replay will.
  Gen closing;
  closing.punctuation = true;
  for (const Gen& g : events) {
    closing.time_us = std::max(closing.time_us, g.time_us + 1'000'000);
  }
  events.push_back(closing);

  // ---- single-threaded reference fold (also sizes the buffers) ----
  double ref_s = 0.0;
  const std::vector<stream::WindowOutput> ref = reference_fold(events, &ref_s);
  const std::uint64_t fp = stream::fingerprint(ref);
  report->check(!ref.empty(), "reference fold produced no outputs");
  report->set("stream.reference_fold_per_s",
              static_cast<double>(events.size()) / ref_s, "1/s");

  // ---- rounds: set-up, paced, burst, close, kill on a fresh pipeline ----
  std::vector<double> setups, p50, p90, p99, late, rate, flush, ingest50,
      ingest99;
  std::size_t backlog_max = 0, samples = 0;
  std::uint64_t dropped = 0, retries = 0, appends = 0, syncs = 0;
  double wal_bytes = 0.0;
  std::string wal;
  for (int r = 0; r < kRounds; ++r) {
    g_wal_env.remove_dir(wal);  // the previous round's journal
    wal = options.workdir + "/stream_wal" + std::to_string(r);
    const Clock::time_point t0 = Clock::now();
    Pipeline p(wal, events.size(), ref.size(), nullptr);
    for (std::size_t i = 0; i < kWarmupEvents; ++i) p.ingest(events[i]);
    p.engine->flush();
    setups.push_back(s_between(t0, Clock::now()));

    const std::uint64_t appends0 = p.counter("storage.log.appends");
    const std::uint64_t syncs0 = p.counter("storage.log.syncs");
    const std::string log = storage::CatalogLog::log_path(wal);
    const double bytes0 = g_wal_env.bytes(log);
    const Timed t = run_phases(p, events, kWarmupEvents, paced, burst, nullptr);
    appends += p.counter("storage.log.appends") - appends0;
    syncs += p.counter("storage.log.syncs") - syncs0;
    wal_bytes += g_wal_env.bytes(log) - bytes0;

    close_all(p, events.back());
    const stream::EngineStats stats = p.engine->stats();
    const stream::IngestStats ingest = p.engine->ingestor().stats();
    const stream::SessionStats session = p.subscriber->session_stats();
    p.engine->kill();
    report->check(stats.events_processed ==
                      ingest.admitted - ingest.punctuations,
                  "events_processed != admitted events");
    report->check(ingest.admitted == events.size(),
                  "admitted " + std::to_string(ingest.admitted) + " of " +
                      std::to_string(events.size()) + " events");
    report->check(session.suppressed == 0, "ack suppressed a live delivery");
    const std::vector<stream::WindowOutput>& live = p.subscriber->outputs;
    report->check(live.size() == ref.size() && stream::fingerprint(live) == fp,
                  "live outputs (" + std::to_string(live.size()) +
                      ") differ from the reference fold (" +
                      std::to_string(ref.size()) + ")");
    dropped += session.dropped;
    retries += p.retries;

    // Emit latency: scheduled send of the window-closing paced event ->
    // poll() of each output it released.
    std::vector<double> latency;
    for (const auto& [frontier, at] : p.subscriber->stamps) {
      const std::uint64_t idx = frontier / kStepUs;
      if (frontier % kStepUs != 0 || idx < kWarmupEvents + 1 ||
          idx > kWarmupEvents + paced) {
        continue;
      }
      latency.push_back(
          us_between(t.paced_sched[idx - 1 - kWarmupEvents], at));
    }
    report->check(!latency.empty(), "no paced-phase deliveries");
    samples += latency.size();
    p50.push_back(quantile(latency, 0.5));
    p90.push_back(quantile(latency, 0.9));
    p99.push_back(quantile(latency, 0.99));
    late.push_back(quantile(t.late_us, 0.99));
    rate.push_back(t.fold_per_s);
    flush.push_back(t.flush_ms);
    ingest50.push_back(quantile(t.ingest_ns, 0.5));
    ingest99.push_back(quantile(t.ingest_ns, 0.99));
    backlog_max = std::max(backlog_max, t.backlog_max);
  }
  const std::uint64_t timed_events = kRounds * (paced + burst);
  report->count(timed_events, dropped);
  report->check(dropped == 0, std::to_string(dropped) + " deliveries dropped");

  const double goodput = median(rate);
  report->set("setup_s", median(setups), "s", setups.size());
  report->set("p50_us", median(p50), "us", samples);
  report->set("p90_us", median(p90), "us", samples);
  report->set("p99_us", median(p99), "us", samples);
  report->set("latency_samples", static_cast<double>(samples), "count");
  report->set("gen_late_p99_us", median(late), "us", kRounds * paced);
  report->set("goodput_per_s", goodput, "1/s", rate.size());
  report->set("fail_ratio",
              static_cast<double>(dropped) / static_cast<double>(timed_events),
              "ratio", timed_events);
  report->set("stream.ingest_ns.p50", median(ingest50), "ns",
              kRounds * burst);
  report->set("stream.ingest_ns.p99", median(ingest99), "ns",
              kRounds * burst);
  report->set("stream.backlog_max", static_cast<double>(backlog_max),
              "events");
  report->set("stream.flush_ms", median(flush), "ms", flush.size());
  report->set("stream.dropped", static_cast<double>(dropped), "count");
  report->set("stream.backpressure_retries", static_cast<double>(retries),
              "count");
  report->set("storage.syncs_per_kevent",
              static_cast<double>(syncs) * 1e3 /
                  static_cast<double>(std::max<std::uint64_t>(appends, 1)),
              "1/kevent");
  report->set("storage.wal_bytes_per_event",
              wal_bytes /
                  static_cast<double>(std::max<std::uint64_t>(appends, 1)),
              "B");

  // ---- recover: fresh engines on the killed engine's WAL ----
  std::vector<double> recovery, catalog_replay;
  for (int r = 0; r < kReplays; ++r) {
    stream::EngineConfig config;
    config.ingest.wal_dir = wal;
    stream::StreamEngine engine(config, nullptr, &g_wal_env);
    for (auto& op : make_operators()) {
      require(engine.add_operator(std::move(op)), "add_operator");
    }
    auto session = engine.subscribe("bench", kTopic, session_config());
    require(session.status(), "subscribe");
    Subscriber replayed(*session, false, ref.size(), nullptr);
    const Clock::time_point t0 = Clock::now();
    const Result<std::uint64_t> folded = engine.replay_wal();
    const Clock::time_point t1 = Clock::now();
    replayed.finish(engine.stats().deliveries);
    recovery.push_back(s_between(t0, t1));
    report->check(folded.ok() && *folded == events.size(),
                  "replay folded a different event count");
    report->check(stream::fingerprint(replayed.outputs) == fp,
                  "replayed outputs differ from the live outputs");

    const Clock::time_point c0 = Clock::now();
    const storage::ReplayResult catalog =
        storage::CatalogLog::replay(wal, nullptr, &g_wal_env);
    const double c_s = s_between(c0, Clock::now());
    report->check(catalog.corrupt_records == 0, "WAL has corrupt records");
    catalog_replay.push_back(
        static_cast<double>(catalog.records_applied +
                            catalog.records_skipped) /
        c_s);
  }
  const double recovery_s = median(recovery);
  report->set("recovery_s", recovery_s, "s", recovery.size());
  report->set("stream.replay_fold_per_s",
              static_cast<double>(events.size()) / recovery_s, "1/s");
  report->set("storage.replay_per_s", median(catalog_replay), "1/s",
              catalog_replay.size());

  if (!options.trace) return;
  obs::Tracer tracer(obs::TracerConfig{1 << 20, true});
  const std::string traced_wal = options.workdir + "/stream_wal_traced";
  g_wal_env.remove_dir(wal);
  Pipeline traced(traced_wal, events.size(), ref.size(), &tracer);
  for (std::size_t i = 0; i < kWarmupEvents; ++i) traced.ingest(events[i]);
  traced.engine->flush();
  const Timed tt =
      run_phases(traced, events, kWarmupEvents, paced, burst, &tracer);
  close_all(traced, events.back());
  traced.engine->kill();
  {
    // One traced recovery: replay_wal() on a fresh engine (no session, so
    // no deliveries) and the raw catalog replay.
    stream::EngineConfig config;
    config.ingest.wal_dir = traced_wal;
    stream::StreamEngine engine(config, nullptr, &g_wal_env);
    for (auto& op : make_operators()) {
      require(engine.add_operator(std::move(op)), "add_operator");
    }
    {
      obs::Tracer::ScopedSpan span =
          tracer.scoped("stream.replay_wal", "bench");
      require(engine.replay_wal().status(), "replay_wal");
    }
    obs::Tracer::ScopedSpan span = tracer.scoped("storage.replay", "bench");
    (void)storage::CatalogLog::replay(traced_wal, nullptr, &g_wal_env);
  }
  report_trace(tracer, options, goodput, tt.fold_per_s, report);
}

}  // namespace perfbench
