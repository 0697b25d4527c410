// serve_mix: the path the paper's users take. One generator thread sends
// open-loop Poisson arrivals of the three paper endpoints into a 2-node
// cluster::Federation (one worker per node); 20% of requests are
// latency-critical with a deadline, every request reads a Zipf-keyed
// input object whose working set is several times a node's input cache,
// and input stagings are journaled to per-node WALs. Modeled staging
// transfers are counted but not slept (input_stage_scale = 0), and the
// modeled forward/reply hops are kept out of the latency
// (charge_hops_in_latency = false): both show up only as per-layer
// metrics tagged modeled.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <sys/prctl.h>

#include "cluster/federation.hpp"
#include "common/rng.hpp"
#include "serve/endpoints.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace everest;

constexpr std::size_t kNodes = 2;
constexpr std::size_t kObjects = 256;
constexpr double kObjectBytes = 64.0 * 1024;
/// Per-node input cache: 32 objects, an eighth of the working set.
constexpr double kCacheBytes = 32 * kObjectBytes;
constexpr double kZipfSkew = 1.0;
constexpr double kLcFraction = 0.2;
constexpr double kLcDeadlineUs = 50'000.0;
/// About half the capacity measured on a 4-core 2.1 GHz box.
constexpr double kNominalRps = 1200.0;
/// Capacity ladder (requests/s) and its latency limit on p99.
constexpr double kLadderRps[] = {1200.0, 1600.0, 2000.0, 2400.0,
                                 2800.0, 3200.0, 3600.0};
constexpr double kP99LimitUs = 10'000.0;
constexpr int kSetups = 3;
constexpr double kWarmupS = 0.5;
/// The traced repetition is kept short: every request leaves ~10 spans,
/// all held in memory and exported.
constexpr double kTracedS = 2.5;
constexpr const char* kKernels[] = {"energy_forecast", "aq_dispersion",
                                    "ptdr_route"};

struct Arrival {
  double at_us = 0.0;  ///< scheduled send, from the phase start
  int kernel = 0;
  bool lc = false;
  double scale = 1.0;
  std::size_t object = 0;
  std::uint64_t seed = 0;
};

std::vector<Arrival> make_schedule(std::uint64_t seed, double rps,
                                   double seconds) {
  static const ZipfSampler zipf(kObjects, kZipfSkew);
  Rng rng(seed);
  std::vector<Arrival> schedule;
  double t = 0.0;
  for (;;) {
    t += rng.exponential(rps) * 1e6;
    if (t >= seconds * 1e6) break;
    Arrival a;
    a.at_us = t;
    a.kernel = static_cast<int>(rng.uniform_int(3));
    a.lc = rng.bernoulli(kLcFraction);
    a.scale = rng.uniform(0.5, 1.5);
    a.object = zipf.sample(rng);
    a.seed = rng.next();
    schedule.push_back(a);
  }
  return schedule;
}

/// Per-request outcome, written once by the response callback.
struct Outcome {
  std::atomic<int> calls{0};
  StatusCode code = StatusCode::kOk;
  double latency_us = 0.0;  ///< scheduled send -> callback
  double service_us = 0.0;
  double wait_us = 0.0;  ///< server latency - service (queue+batch+dispatch)
  double value = 0.0;
};

struct OpenLoop {
  std::size_t n = 0;
  std::unique_ptr<Outcome[]> outcomes;
  std::vector<char> admitted;
  std::vector<double> late_us, submit_ns;
  double wall_s = 0.0;  ///< first scheduled send -> drained
  double tail_us = 0.0;  ///< last scheduled send -> drained

  // Filled by tally().
  std::uint64_t ok = 0, rejected = 0, expired = 0, failed = 0;
  std::uint64_t miscounted = 0, bad_values = 0;
  std::vector<double> latency, lc_latency, wait;
  std::vector<double> service[3];

  void tally(const std::vector<Arrival>& schedule) {
    for (std::size_t i = 0; i < n; ++i) {
      const Outcome& o = outcomes[i];
      const int calls = o.calls.load(std::memory_order_acquire);
      if (!admitted[i]) {
        ++rejected;
        if (calls != 0) ++miscounted;
        continue;
      }
      if (calls != 1) {
        ++miscounted;
        continue;
      }
      if (o.code == StatusCode::kOk) {
        ++ok;
        if (!std::isfinite(o.value)) ++bad_values;
        latency.push_back(o.latency_us);
        if (schedule[i].lc) lc_latency.push_back(o.latency_us);
        wait.push_back(o.wait_us);
        service[schedule[i].kernel].push_back(o.service_us);
      } else if (o.code == StatusCode::kDeadlineExceeded) {
        ++expired;
      } else {
        ++failed;
      }
    }
  }
  [[nodiscard]] std::uint64_t failures() const {
    return rejected + expired + failed;
  }
};

/// Open-loop pacing: sleeps until `t` with a 1 ns timer slack (the
/// default 50 us slack would add up to 50 us to every send). It does not
/// spin: on a VM whose host is oversubscribed, a spinning thread draws
/// CPU steal onto the threads being measured.
void wait_until(Clock::time_point t) {
  static thread_local const int slack = prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  (void)slack;
  std::this_thread::sleep_until(t);
}

OpenLoop run_open_loop(cluster::Federation& fed,
                       const std::vector<Arrival>& schedule,
                       obs::Tracer* tracer) {
  OpenLoop run;
  run.n = schedule.size();
  run.outcomes = std::make_unique<Outcome[]>(run.n);
  run.admitted.assign(run.n, 0);
  run.late_us.reserve(run.n);
  run.submit_ns.reserve(run.n);
  const Clock::time_point start =
      Clock::now() + std::chrono::milliseconds(2);
  Clock::time_point sched = start;
  for (std::size_t i = 0; i < run.n; ++i) {
    const Arrival& a = schedule[i];
    sched = start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double, std::micro>(a.at_us));
    wait_until(sched);
    run.late_us.push_back(us_between(sched, Clock::now()));

    serve::Request request;
    request.kernel = kKernels[a.kernel];
    request.sla = a.lc ? serve::SlaClass::kLatencyCritical
                       : serve::SlaClass::kThroughput;
    request.payload_scale = a.scale;
    request.data_key = "obj" + std::to_string(a.object);
    request.input_bytes = kObjectBytes;
    request.seed = a.seed;
    if (a.lc) {
      request.deadline =
          sched + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double, std::micro>(
                          kLcDeadlineUs));
    }
    std::uint64_t trace_id = 0, root = 0;
    if (tracer != nullptr) {
      trace_id = tracer->next_id();
      root = tracer->next_id();
    }
    Outcome* o = &run.outcomes[i];
    const Clock::time_point t0 = Clock::now();
    const Status st = fed.submit(
        std::move(request),
        [o, sched, tracer, trace_id, root](const serve::Response& r) {
          const Clock::time_point at = Clock::now();
          o->code = r.status.code();
          o->latency_us = us_between(sched, at);
          o->service_us = r.service_us;
          o->wait_us = r.latency_us - r.service_us;
          o->value = r.value;
          if (tracer != nullptr) {
            tracer->span(obs::TimeDomain::kWall, trace_id, root, 0,
                         tracer->wall_us(sched), tracer->wall_us(at),
                         obs::kAutoTrack, "client.request", "bench");
          }
          o->calls.fetch_add(1, std::memory_order_release);
        });
    const Clock::time_point t1 = Clock::now();
    run.submit_ns.push_back(ns_between(t0, t1));
    run.admitted[i] = st.ok() ? 1 : 0;
    if (tracer != nullptr) {
      tracer->span(obs::TimeDomain::kWall, trace_id, tracer->next_id(), root,
                   tracer->wall_us(t0), tracer->wall_us(t1), obs::kAutoTrack,
                   "cluster.submit", "bench");
      if (!st.ok()) {
        tracer->span(obs::TimeDomain::kWall, trace_id, root, 0,
                     tracer->wall_us(sched), tracer->wall_us(t1),
                     obs::kAutoTrack, "client.request", "bench");
      }
    }
  }
  fed.drain();
  const Clock::time_point end = Clock::now();
  run.wall_s = s_between(start, end);
  run.tail_us = us_between(sched, end);
  run.tally(schedule);
  return run;
}

/// Removes and recreates `path`.
void fresh_dir(const std::string& path) {
  std::filesystem::remove_all(path);
  std::filesystem::create_directories(path);
}

std::unique_ptr<cluster::Federation> make_federation(const std::string& dir,
                                                     obs::Tracer* tracer,
                                                     std::uint64_t seed) {
  fresh_dir(dir);
  cluster::FederationOptions o;
  o.num_nodes = kNodes;
  o.node.worker_threads = 1;
  o.node.input_cache.capacity_bytes = kCacheBytes;
  o.node.input_stage_scale = 0.0;
  o.node.tracer = tracer;
  o.tracer = tracer;
  o.storage_dir = dir;
  o.charge_hops_in_latency = false;
  auto fed = std::make_unique<cluster::Federation>(o);
  for (const serve::Endpoint& ep : serve::standard_endpoints()) {
    require(fed->register_endpoint(ep), "register_endpoint");
  }
  require(fed->start(), "federation start");
  run_open_loop(*fed, make_schedule(seed ^ 0x5EED, kNominalRps, kWarmupS),
                tracer);
  for (std::size_t i = 0; i < kNodes; ++i) {
    fed->node(i).mutable_metrics().reset();
  }
  return fed;
}

std::uint64_t counter(const cluster::Federation& fed, const char* name) {
  const obs::RegistrySnapshot snap = fed.registry().snapshot();
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

/// Bytes in the nodes' staging WALs under `dir`.
double wal_bytes(const std::string& dir) {
  double total = 0.0;
  for (std::size_t i = 0; i < kNodes; ++i) {
    std::error_code ec;
    const auto size = std::filesystem::file_size(
        storage::CatalogLog::log_path(dir + "/node" + std::to_string(i)), ec);
    if (!ec) total += static_cast<double>(size);
  }
  return total;
}

void check_accounting(const OpenLoop& run, const std::string& phase,
                      Report* report) {
  report->check(run.ok + run.failures() == run.n,
                phase + ": requests not accounted exactly once");
  report->check(run.miscounted == 0,
                phase + ": " + std::to_string(run.miscounted) +
                    " lost or duplicate callbacks");
  report->check(run.bad_values == 0,
                phase + ": " + std::to_string(run.bad_values) +
                    " non-finite values");
}

}  // namespace

void run_serve_mix(const RunOptions& options, Report* report) {
  std::vector<double> setups;
  std::unique_ptr<cluster::Federation> fed;
  std::string dir;
  for (int k = 0; k < kSetups; ++k) {
    fed.reset();
    dir = options.workdir + "/serve_mix" + std::to_string(k);
    const Clock::time_point t0 = Clock::now();
    fed = make_federation(dir, nullptr, options.seed + k);
    setups.push_back(s_between(t0, Clock::now()));
  }
  report->set("setup_s", median(setups), "s", setups.size());

  // ---- timed phase at the nominal rate ----
  const cluster::FederationStats fed0 = fed->stats();
  data::CacheStats cache0[kNodes];
  for (std::size_t i = 0; i < kNodes; ++i) {
    cache0[i] = fed->node(i).input_cache_stats();
  }
  const std::uint64_t syncs0 = counter(*fed, "storage.log.syncs");
  const double bytes0 = wal_bytes(dir);

  const std::vector<Arrival> schedule =
      make_schedule(options.seed, kNominalRps, options.seconds);
  const OpenLoop run = run_open_loop(*fed, schedule, nullptr);
  check_accounting(run, "nominal", report);
  report->check(run.n > 0, "empty schedule");
  report->count(run.n, run.failures());

  const double goodput = static_cast<double>(run.ok) / run.wall_s;
  report->set("p50_us", quantile(run.latency, 0.5), "us", run.latency.size());
  report->set("p90_us", quantile(run.latency, 0.9), "us", run.latency.size());
  report->set("p99_us", quantile(run.latency, 0.99), "us",
              run.latency.size());
  report->set("lc_p99_us", quantile(run.lc_latency, 0.99), "us",
              run.lc_latency.size());
  report->set("goodput_per_s", goodput, "1/s", run.ok);
  report->set("fail_ratio",
              static_cast<double>(run.failures()) /
                  static_cast<double>(std::max<std::size_t>(run.n, 1)),
              "ratio", run.n);
  report->set("latency_samples", static_cast<double>(run.latency.size()),
              "count");
  report->set("gen_late_p99_us", quantile(run.late_us, 0.99), "us",
              run.late_us.size());

  // serve + apps
  double snapshot_us = 0.0, batch_weighted = 0.0, batches = 0.0;
  double stall_us = 0.0;
  std::size_t depth_max = 0;
  for (std::size_t i = 0; i < kNodes; ++i) {
    const Clock::time_point s0 = Clock::now();
    const serve::MetricsSnapshot snap = fed->node(i).metrics().snapshot();
    snapshot_us = std::max(snapshot_us, us_between(s0, Clock::now()));
    batch_weighted += snap.mean_batch_size * static_cast<double>(snap.batches);
    batches += static_cast<double>(snap.batches);
    depth_max = std::max(depth_max, snap.max_queue_depth);
    stall_us += snap.input_stall_us;
  }
  report->set("serve.wait_us.p50", quantile(run.wait, 0.5), "us",
              run.wait.size());
  report->set("serve.wait_us.p99", quantile(run.wait, 0.99), "us",
              run.wait.size());
  report->set("serve.batch_mean", batches > 0 ? batch_weighted / batches : 0,
              "requests", static_cast<std::uint64_t>(batches));
  report->set("serve.queue_depth_max", static_cast<double>(depth_max),
              "requests");
  report->set("serve.snapshot_us", snapshot_us, "us");
  for (int k = 0; k < 3; ++k) {
    report->set(std::string("apps.") + kKernels[k] + "_us",
                quantile(run.service[k], 0.5), "us", run.service[k].size());
  }

  // cluster + data
  const cluster::FederationStats fed1 = fed->stats();
  const auto keyed = static_cast<double>(fed1.keyed - fed0.keyed);
  report->set("cluster.submit_ns", quantile(run.submit_ns, 0.5), "ns",
              run.submit_ns.size());
  report->set("cluster.local_ratio",
              keyed > 0 ? (fed1.keyed_data_local - fed0.keyed_data_local) /
                              keyed
                        : 0.0,
              "ratio");
  report->set("cluster.forwarded_ratio",
              static_cast<double>(fed1.forwarded - fed0.forwarded) /
                  static_cast<double>(
                      std::max<std::uint64_t>(fed1.submitted - fed0.submitted,
                                              1)),
              "ratio");
  report->set("cluster.hop_modeled_us", fed1.hop_mean_us, "us.modeled",
              fed1.hops);
  std::uint64_t hits = 0, misses = 0;
  for (std::size_t i = 0; i < kNodes; ++i) {
    const data::CacheStats c = fed->node(i).input_cache_stats();
    hits += c.hits - cache0[i].hits;
    misses += c.misses - cache0[i].misses;
  }
  report->set("data.input_hit_ratio",
              hits + misses > 0 ? static_cast<double>(hits) /
                                      static_cast<double>(hits + misses)
                                : 0.0,
              "ratio", hits + misses);
  report->set("data.stall_modeled_ms", stall_us / 1e3, "ms.modeled");

  // storage: the staging WAL appends of this phase
  const double requests = static_cast<double>(std::max<std::size_t>(run.n, 1));
  report->set("storage.syncs_per_kevent",
              static_cast<double>(counter(*fed, "storage.log.syncs") -
                                  syncs0) *
                  1e3 / requests,
              "1/kevent");
  report->set("storage.wal_bytes_per_event",
              (wal_bytes(dir) - bytes0) / requests, "B");

  // ---- capacity ladder: highest rate whose p99 meets the limit with no
  // failures and no backlog left at the end of the step ----
  double capacity = 0.0;
  const double step_s = std::max(1.0, options.seconds / 8.0);
  for (const double rps : kLadderRps) {
    const std::vector<Arrival> step = make_schedule(
        options.seed * 31 + static_cast<std::uint64_t>(rps), rps, step_s);
    const OpenLoop r = run_open_loop(*fed, step, nullptr);
    check_accounting(r, "ladder " + std::to_string(static_cast<int>(rps)),
                     report);
    const bool meets = r.failures() == 0 &&
                       quantile(r.latency, 0.99) <= kP99LimitUs &&
                       r.tail_us <= kP99LimitUs;
    if (!meets) break;
    capacity = rps;
  }
  report->set("capacity_per_s", capacity, "1/s");
  fed->stop();
  fed.reset();

  if (!options.trace) return;
  obs::Tracer tracer(obs::TracerConfig{1 << 20, true});
  fed = make_federation(options.workdir + "/serve_mix_traced", &tracer,
                        options.seed + kSetups);
  tracer.clear();
  const OpenLoop traced = run_open_loop(
      *fed, make_schedule(options.seed + 1, kNominalRps, kTracedS), &tracer);
  check_accounting(traced, "traced", report);
  fed->stop();
  report_trace(tracer, options, goodput,
               static_cast<double>(traced.ok) / traced.wall_s, report);
}

}  // namespace perfbench
