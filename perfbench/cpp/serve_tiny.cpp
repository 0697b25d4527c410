// serve_tiny: one pipelined client against one serve::Server whose only
// endpoint writes one value per request. Batching is off, every request
// is throughput-class and carries no data key, so the time measured is
// the framework's own path: admission -> queue -> batch formation ->
// dispatch -> pool -> reply.
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "runtime/knowledge.hpp"
#include "serve/server.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace everest;

/// One client thread keeps this many requests outstanding, twice the
/// server's in-flight cap (2 batches per worker), so the queue never
/// runs dry and the dispatcher's back-off runs as it does under load.
/// With the dispatcher and two workers the run has 4 threads, nproc of
/// the reference box; more client threads would measure the scheduler.
constexpr std::size_t kWindow = 8;
constexpr int kSetups = 5;
/// Warm-up requests (set-up work, not a fixed duration, so set-up time
/// follows the code's speed).
constexpr std::uint64_t kWarmup = 10'000;
/// The timed phase is a fixed amount of work: --seconds times this many
/// requests (a little under --seconds of wall time on a 4-core 2.1 GHz
/// box), so every run and every version of the code serves the same
/// inputs and holds the same samples. A run is still cut at 3x
/// --seconds.
constexpr double kRequestsPerS = 25'000.0;
/// goodput_per_s is the median rate over this many equal slices of the
/// timed phase (by request count), so a short slow period of the host
/// moves one slice, not the figure.
constexpr std::size_t kSlices = 25;
/// The traced repetition is kept short: every request leaves ~7 spans,
/// all held in memory and exported.
constexpr std::uint64_t kTraced = 4'000;

double expected_value(std::uint64_t seed) {
  return static_cast<double>(seed % 1000) + 0.5;
}

serve::Endpoint tiny_endpoint() {
  serve::Endpoint ep;
  ep.kernel = "tiny";
  compiler::Variant v;
  v.id = "tiny-cpu";
  v.kernel = ep.kernel;
  v.target = compiler::TargetKind::kCpu;
  v.latency_us = 1.0;
  v.energy_uj = 1.0;
  ep.variants = {v};
  ep.handler = [](const serve::Batch& batch, std::vector<double>* values) {
    values->clear();
    for (const serve::PendingRequest& pending : batch.requests) {
      values->push_back(expected_value(pending.request.seed));
    }
    return OkStatus();
  };
  return ep;
}

struct Stack {
  runtime::KnowledgeBase kb;
  serve::Server server;
  explicit Stack(obs::Tracer* tracer) : server(options(tracer), &kb) {}

  static serve::ServerOptions options(obs::Tracer* tracer) {
    serve::ServerOptions o;
    o.worker_threads = 2;
    o.batch.max_batch = 1;
    o.batch.lc_max_batch = 1;
    o.tracer = tracer;
    return o;
  }
};

/// One phase of the client: its outcome counts and samples. Everything
/// lives as long as the whole phase, so a duplicate callback is counted,
/// not written into a dead frame.
struct Phase {
  explicit Phase(std::uint64_t max_requests)
      : slice_len(std::max<std::uint64_t>(1, max_requests / kSlices)) {
    latency_us.reserve(max_requests);
    wait_us.reserve(max_requests);
    submit_ns.reserve(max_requests);
  }

  const std::uint64_t slice_len;
  std::mutex mu;
  std::condition_variable cv;
  // Written by the callbacks, guarded by mu.
  std::uint64_t callbacks = 0, ok = 0, expired = 0, failed = 0,
                bad_values = 0;
  std::vector<std::uint64_t> slice_ok = std::vector<std::uint64_t>(kSlices);
  std::vector<double> latency_us, wait_us;
  // Written by the client thread.
  std::uint64_t attempted = 0, rejected = 0;
  std::vector<double> submit_ns;
  std::vector<Clock::time_point> slice_start;  // send time of each slice
  double wall_s = 0.0;
};

/// One client keeps kWindow requests outstanding until `seconds` passed
/// or it sent `max_requests`.
std::unique_ptr<Phase> run_phase(serve::Server& server, std::uint64_t seed,
                                 double seconds, std::uint64_t max_requests,
                                 obs::Tracer* tracer) {
  auto phase = std::make_unique<Phase>(max_requests);
  Phase& p = *phase;
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 1);
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::uint64_t admitted = 0;
  while (p.attempted < max_requests && Clock::now() < end) {
    {
      std::unique_lock<std::mutex> lock(p.mu);
      p.cv.wait(lock, [&] { return admitted - p.callbacks < kWindow; });
    }
    const std::uint64_t index = p.attempted++;
    serve::Request request;
    request.kernel = "tiny";
    request.seed = rng.next();
    const std::uint64_t value_seed = request.seed;
    std::uint64_t trace_id = 0, root = 0;
    if (tracer != nullptr) {
      trace_id = tracer->next_id();
      root = tracer->next_id();
      request.trace = obs::TraceContext{trace_id, root};
    }
    const Clock::time_point t0 = Clock::now();
    if (index % p.slice_len == 0) p.slice_start.push_back(t0);
    const Status st = server.submit(
        std::move(request), [&p, index, value_seed, t0, tracer, trace_id,
                             root](const serve::Response& response) {
          const Clock::time_point at = Clock::now();
          if (tracer != nullptr) {
            tracer->span(obs::TimeDomain::kWall, trace_id, root, 0,
                         tracer->wall_us(t0), tracer->wall_us(at),
                         obs::kAutoTrack, "client.request", "bench");
          }
          std::lock_guard<std::mutex> lock(p.mu);
          ++p.callbacks;
          if (response.status.ok()) {
            ++p.ok;
            const std::uint64_t slice = index / p.slice_len;
            if (slice < kSlices) ++p.slice_ok[slice];
            if (!std::isfinite(response.value) ||
                response.value != expected_value(value_seed)) {
              ++p.bad_values;
            }
            p.latency_us.push_back(us_between(t0, at));
            p.wait_us.push_back(response.latency_us - response.service_us);
          } else if (response.status.code() ==
                     StatusCode::kDeadlineExceeded) {
            ++p.expired;
          } else {
            ++p.failed;
          }
          p.cv.notify_one();
        });
    const Clock::time_point t1 = Clock::now();
    p.submit_ns.push_back(ns_between(t0, t1));
    if (tracer != nullptr) {
      tracer->span(obs::TimeDomain::kWall, trace_id, tracer->next_id(), root,
                   tracer->wall_us(t0), tracer->wall_us(t1), obs::kAutoTrack,
                   "serve.submit", "bench");
    }
    if (st.ok()) {
      ++admitted;
    } else {
      ++p.rejected;
    }
  }
  {
    std::unique_lock<std::mutex> lock(p.mu);
    p.cv.wait(lock, [&] { return p.callbacks >= admitted; });
  }
  const Clock::time_point stop = Clock::now();
  p.wall_s = s_between(start, stop);
  p.slice_start.push_back(stop);
  server.drain();
  return phase;
}

/// Median over the timed phase's whole slices of (successes in the
/// slice) / (send of its first request -> send of the next slice's).
double sliced_goodput(Phase& p) {
  std::lock_guard<std::mutex> lock(p.mu);
  std::vector<double> rates;
  for (std::size_t k = 0; k + 1 < p.slice_start.size() && k < kSlices; ++k) {
    if ((k + 1) * p.slice_len > p.attempted) break;  // cut by time
    rates.push_back(static_cast<double>(p.slice_ok[k]) /
                    s_between(p.slice_start[k], p.slice_start[k + 1]));
  }
  return median(rates);
}

std::unique_ptr<Stack> make_stack(obs::Tracer* tracer, std::uint64_t seed) {
  auto stack = std::make_unique<Stack>(tracer);
  require(stack->server.register_endpoint(tiny_endpoint()),
          "register_endpoint");
  require(stack->server.start(), "server start");
  run_phase(stack->server, seed ^ 0x5EED, 60.0, kWarmup, tracer);
  stack->server.mutable_metrics().reset();
  return stack;
}

}  // namespace

void run_serve_tiny(const RunOptions& options, Report* report) {
  // Set-up (construction, registration, start, warm-up) several times;
  // the last stack serves the timed phase.
  std::vector<double> setups;
  std::unique_ptr<Stack> stack;
  for (int k = 0; k < kSetups; ++k) {
    stack.reset();
    const Clock::time_point t0 = Clock::now();
    stack = make_stack(nullptr, options.seed + k);
    setups.push_back(s_between(t0, Clock::now()));
  }
  report->set("setup_s", median(setups), "s", setups.size());

  const auto requests =
      static_cast<std::uint64_t>(options.seconds * kRequestsPerS);
  const std::unique_ptr<Phase> phase = run_phase(
      stack->server, options.seed, 3 * options.seconds, requests, nullptr);
  const Clock::time_point s0 = Clock::now();
  const serve::MetricsSnapshot snap = stack->server.metrics().snapshot();
  report->set("serve.snapshot_us", us_between(s0, Clock::now()), "us");
  stack->server.stop();

  const double goodput = sliced_goodput(*phase);
  std::lock_guard<std::mutex> lock(phase->mu);
  const Phase& p = *phase;
  report->check(p.attempted > 0, "no request attempted");
  report->check(p.ok + p.rejected + p.expired + p.failed == p.attempted,
                "requests not accounted exactly once");
  report->check(p.callbacks == p.ok + p.expired + p.failed,
                "callbacks (" + std::to_string(p.callbacks) +
                    ") != admitted requests (" +
                    std::to_string(p.ok + p.expired + p.failed) + ")");
  report->check(p.bad_values == 0,
                std::to_string(p.bad_values) + " wrong response values");
  report->check(snap.completed == p.ok,
                "server completed count disagrees with the client");
  const std::uint64_t failures = p.rejected + p.expired + p.failed;
  report->count(p.attempted, failures);

  const std::vector<double>& latency = p.latency_us;
  report->set("p50_us", quantile(latency, 0.5), "us", latency.size());
  report->set("p90_us", quantile(latency, 0.9), "us", latency.size());
  report->set("p99_us", quantile(latency, 0.99), "us", latency.size());
  report->set("goodput_per_s", goodput, "1/s", p.ok);
  report->set("fail_ratio",
              static_cast<double>(failures) /
                  static_cast<double>(p.attempted),
              "ratio", p.attempted);
  report->set("latency_samples", static_cast<double>(latency.size()),
              "count");
  report->set("serve.submit_ns", quantile(p.submit_ns, 0.5), "ns",
              p.submit_ns.size());
  report->set("serve.wait_us.p50", quantile(p.wait_us, 0.5), "us",
              p.wait_us.size());
  report->set("serve.wait_us.p99", quantile(p.wait_us, 0.99), "us",
              p.wait_us.size());
  report->set("serve.batch_mean", snap.mean_batch_size, "requests",
              snap.batches);
  report->set("serve.queue_depth_max",
              static_cast<double>(snap.max_queue_depth), "requests");
  stack.reset();

  if (!options.trace) return;
  obs::Tracer tracer(obs::TracerConfig{1 << 20, true});
  stack = make_stack(&tracer, options.seed + kSetups);
  tracer.clear();
  const std::unique_ptr<Phase> traced = run_phase(
      stack->server, options.seed + 1, 3 * options.seconds, kTraced, &tracer);
  stack->server.stop();
  report_trace(tracer, options, goodput,
               sliced_goodput(*traced), report);
}

}  // namespace perfbench
