#include "serve/loadgen.hpp"

#include <algorithm>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>

#include "common/rng.hpp"
#include "common/stats.hpp"

namespace everest::serve {

namespace {

/// Client-side completion sink shared by all submissions of one run.
struct Collector {
  std::mutex mu;
  LoadReport report;

  void on_response(SlaClass sla, const Response& response) {
    std::lock_guard<std::mutex> lock(mu);
    if (response.status.ok()) {
      ++report.completed;
      report.latencies_us[static_cast<int>(sla)].push_back(
          response.latency_us);
    } else if (response.status.code() == StatusCode::kDeadlineExceeded) {
      ++report.expired;
    } else {
      ++report.failed;
    }
  }
};

/// Draws the next request deterministically from the workload spec.
/// `zipf` is the shared object-popularity sampler (null = no data keys);
/// `client` rotates the rank → object mapping so each client can have
/// its own hot set.
Request draw_request(const WorkloadSpec& spec, Rng& rng,
                     const ZipfSampler* zipf, int client) {
  Request request;
  request.kernel = spec.kernels[rng.uniform_int(spec.kernels.size())];
  request.sla = rng.bernoulli(spec.lc_fraction) ? SlaClass::kLatencyCritical
                                                : SlaClass::kThroughput;
  request.payload_scale = rng.uniform(0.5, 1.5);
  request.seed = rng.next();
  if (zipf != nullptr) {
    const std::size_t rank = zipf->sample(rng);
    const std::size_t index =
        (rank + static_cast<std::size_t>(client) *
                    spec.per_client_key_stride) %
        zipf->size();
    request.data_key = spec.key_namer ? spec.key_namer(client, index)
                                      : "obj" + std::to_string(index);
    request.input_bytes = spec.input_bytes;
  }
  const double deadline_ms = request.sla == SlaClass::kLatencyCritical
                                 ? spec.lc_deadline_ms
                                 : spec.tp_deadline_ms;
  if (deadline_ms > 0.0) {
    request.deadline =
        Clock::now() + std::chrono::microseconds(
                           static_cast<std::int64_t>(deadline_ms * 1e3));
  }
  return request;
}

}  // namespace

std::vector<double> LoadReport::all_latencies() const {
  std::vector<double> all;
  all.reserve(latencies_us[0].size() + latencies_us[1].size());
  all.insert(all.end(), latencies_us[0].begin(), latencies_us[0].end());
  all.insert(all.end(), latencies_us[1].begin(), latencies_us[1].end());
  return all;
}

double LoadReport::p50_us() const {
  auto all = all_latencies();
  return all.empty() ? 0.0 : percentile(all, 50.0);
}

double LoadReport::p99_us() const {
  auto all = all_latencies();
  return all.empty() ? 0.0 : percentile(all, 99.0);
}

LoadReport run_open_loop(const SubmitFn& submit, const DrainFn& drain,
                         const WorkloadSpec& spec) {
  Collector collector;
  Rng rng(spec.seed);
  std::unique_ptr<ZipfSampler> zipf;
  if (spec.num_data_objects > 0) {
    zipf = std::make_unique<ZipfSampler>(spec.num_data_objects,
                                         spec.zipf_skew);
  }
  const Clock::time_point start = Clock::now();
  const Clock::time_point horizon = start + spec.duration;
  Clock::time_point next_arrival = start;

  while (next_arrival < horizon) {
    std::this_thread::sleep_until(next_arrival);
    Request request = draw_request(spec, rng, zipf.get(), /*client=*/0);
    const SlaClass sla = request.sla;
    {
      std::lock_guard<std::mutex> lock(collector.mu);
      ++collector.report.offered;
    }
    const Status status = submit(
        std::move(request), [&collector, sla](const Response& response) {
          collector.on_response(sla, response);
        });
    if (!status.ok()) {
      std::lock_guard<std::mutex> lock(collector.mu);
      ++collector.report.rejected;
    }
    // Exponential inter-arrival gap: a Poisson arrival process.
    next_arrival += std::chrono::microseconds(static_cast<std::int64_t>(
        rng.exponential(spec.offered_rps) * 1e6));
  }
  if (drain) drain();
  collector.report.wall_s =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count() /
      1e9;
  return collector.report;
}

LoadReport run_open_loop(Server& server, const WorkloadSpec& spec) {
  return run_open_loop(
      [&server](Request request, ResponseCallback on_done) {
        return server.submit(std::move(request), std::move(on_done));
      },
      [&server] { server.drain(); }, spec);
}

LoadReport run_closed_loop(const SubmitFn& submit, const DrainFn& drain,
                           const WorkloadSpec& spec, int clients,
                           double think_ms) {
  Collector collector;
  std::unique_ptr<ZipfSampler> zipf;
  if (spec.num_data_objects > 0) {
    zipf = std::make_unique<ZipfSampler>(spec.num_data_objects,
                                         spec.zipf_skew);
  }
  const Clock::time_point start = Clock::now();
  const Clock::time_point horizon = start + spec.duration;

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      // Per-client deterministic stream, decorrelated across clients.
      Rng rng(spec.seed + 0x9E3779B97F4A7C15ULL * (c + 1));
      std::mutex mu;
      std::condition_variable cv;
      while (Clock::now() < horizon) {
        Request request = draw_request(spec, rng, zipf.get(), c);
        const SlaClass sla = request.sla;
        {
          std::lock_guard<std::mutex> lock(collector.mu);
          ++collector.report.offered;
        }
        bool done = false;
        const Status status = submit(
            std::move(request), [&](const Response& response) {
              collector.on_response(sla, response);
              {
                std::lock_guard<std::mutex> lock(mu);
                done = true;
              }
              cv.notify_one();
            });
        if (!status.ok()) {
          std::lock_guard<std::mutex> lock(collector.mu);
          ++collector.report.rejected;
          // Closed loop backs off instead of hammering a full queue.
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          continue;
        }
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return done; });
        if (think_ms > 0.0) {
          // Exponential think time with mean think_ms.
          std::this_thread::sleep_for(
              std::chrono::microseconds(static_cast<std::int64_t>(
                  rng.exponential(1.0 / think_ms) * 1e3)));
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  if (drain) drain();
  collector.report.wall_s =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count() /
      1e9;
  return collector.report;
}

std::vector<EventArrival> generate_event_arrivals(const EventStreamSpec& spec) {
  std::vector<EventArrival> schedule;
  if (spec.topics.empty() || spec.clients <= 0 || spec.events_per_s <= 0.0) {
    return schedule;
  }
  const double horizon_us =
      std::chrono::duration_cast<std::chrono::microseconds>(spec.duration)
          .count();
  const double client_rate = spec.events_per_s / spec.clients;
  // Mean gap between bursts such that the long-run rate still matches:
  // a burst of n events spans (n-1) base gaps, then idles factor× that.
  const double base_gap_us = 1e6 / client_rate;

  for (int c = 0; c < spec.clients; ++c) {
    // Per-client deterministic substream, decorrelated across clients
    // (same splitmix stride the closed-loop clients use).
    Rng rng(spec.seed + 0x9E3779B97F4A7C15ULL * (c + 1));
    double t_us = 0.0;
    std::size_t in_burst = 0;
    while (t_us < horizon_us) {
      EventArrival arrival;
      arrival.topic = spec.topics[rng.uniform_int(spec.topics.size())];
      arrival.key = rng.uniform_int(
          spec.keys_per_topic == 0 ? 1 : spec.keys_per_topic);
      arrival.event_time_us = static_cast<std::uint64_t>(t_us);
      arrival.value = rng.uniform(spec.value_min, spec.value_max);
      arrival.seed = rng.next();
      arrival.latency_critical = rng.bernoulli(spec.lc_fraction);
      arrival.client = c;
      schedule.push_back(std::move(arrival));

      if (spec.arrival == EventStreamSpec::Arrival::kPoisson) {
        t_us += rng.exponential(client_rate) * 1e6;
      } else {
        ++in_burst;
        if (in_burst >= spec.burst_len) {
          in_burst = 0;
          // Idle gap with seeded jitter in [0.5, 1.5)× the nominal gap,
          // sized so the long-run rate matches events_per_s.
          const double burst_span_us = spec.burst_len * base_gap_us;
          t_us += spec.burst_idle_factor * burst_span_us *
                  rng.uniform(0.5, 1.5);
        } else {
          // Back-to-back within the burst: the burst drains at
          // (1 + idle_factor)× the base rate so the average holds.
          t_us += base_gap_us / (1.0 + spec.burst_idle_factor);
        }
      }
    }
  }
  // Merge the substreams into one event-time-ordered schedule. Ties
  // break by (client, key, seed) so the order is total — identical
  // seeds give byte-identical schedules.
  std::stable_sort(schedule.begin(), schedule.end(),
                   [](const EventArrival& a, const EventArrival& b) {
                     if (a.event_time_us != b.event_time_us) {
                       return a.event_time_us < b.event_time_us;
                     }
                     if (a.client != b.client) return a.client < b.client;
                     return a.seed < b.seed;
                   });
  return schedule;
}

EventStreamReport run_event_stream(const EventSubmitFn& submit,
                                   const EventStreamSpec& spec, bool pace) {
  EventStreamReport report;
  const std::vector<EventArrival> schedule = generate_event_arrivals(spec);
  const Clock::time_point start = Clock::now();
  for (const EventArrival& arrival : schedule) {
    if (pace) {
      std::this_thread::sleep_until(
          start + std::chrono::microseconds(arrival.event_time_us));
    }
    ++report.offered;
    const Status status = submit(arrival);
    if (status.ok()) {
      ++report.admitted;
    } else {
      ++report.rejected;
    }
  }
  report.wall_s = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - start)
                      .count() /
                  1e9;
  return report;
}

}  // namespace everest::serve
