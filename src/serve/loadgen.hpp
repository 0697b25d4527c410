// Deterministic load generation for the serving layer. Two disciplines:
//   * open loop — Poisson arrivals at a configured offered rate,
//     independent of completions (models internet-facing traffic; the
//     discipline that exposes overload behaviour), and
//   * closed loop — N clients, each submit → wait → think → repeat
//     (models a fixed user population; self-throttling).
// The workload (arrival gaps, kernel mix, SLA mix, payloads, seeds) is a
// pure function of WorkloadSpec::seed, so sweeps are reproducible; only
// wall-clock measurements vary between runs.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "serve/server.hpp"

namespace everest::serve {

/// Submission target the generator drives: a serve::Server, a
/// cluster::Federation, or a test double. Same contract as
/// Server::submit — on OK the callback fires exactly once (from any
/// thread); on error it never fires.
using SubmitFn = std::function<Status(Request, ResponseCallback)>;
/// Quiesce hook run once after the generation horizon (waits until every
/// admitted request has its response delivered).
using DrainFn = std::function<void()>;

/// What traffic to offer.
struct WorkloadSpec {
  /// Kernels to draw from, uniformly (must all be registered).
  std::vector<std::string> kernels;
  /// Offered request rate (open loop only).
  double offered_rps = 500.0;
  /// Generation horizon.
  std::chrono::milliseconds duration{500};
  /// Fraction of requests in the latency-critical class.
  double lc_fraction = 0.2;
  /// Relative deadline per class (from submit time). <= 0 disables.
  double lc_deadline_ms = 20.0;
  double tp_deadline_ms = 200.0;
  /// Payload scale distribution: uniform in [0.5, 1.5).
  std::uint64_t seed = 42;

  // ---- input-object mix (0 disables data_key stamping) ----
  /// Distinct input objects requests read; keys are "obj<rank>".
  std::size_t num_data_objects = 0;
  /// Zipf skew of the object popularity (1.0 ≈ typical hot-key skew,
  /// 0 = uniform).
  double zipf_skew = 1.0;
  /// Bytes per input object (misses pay this over the input link).
  double input_bytes = 256.0 * 1024;
  /// Per-client key-space rotation: client c's Zipf rank r maps to object
  /// index (r + c * stride) % num_data_objects, giving every client its
  /// own hot set (tenant locality). 0 = all clients share one ranking.
  /// Open-loop generation is client 0.
  std::size_t per_client_key_stride = 0;
  /// Maps (client, object index) → data key; default "obj<index>". Lets
  /// the cluster bench align generated keys with its shard map without
  /// forking the generator. Must be thread-safe (called from every
  /// client thread).
  std::function<std::string(int client, std::size_t object_index)> key_namer;
};

/// Aggregate outcome of one generation run, as seen by the clients
/// (complements Server metrics, which count from the server side).
struct LoadReport {
  std::uint64_t offered = 0;    ///< submit() attempts
  std::uint64_t rejected = 0;   ///< admission bounced
  std::uint64_t expired = 0;    ///< completed with DEADLINE_EXCEEDED
  std::uint64_t failed = 0;     ///< completed with another error
  std::uint64_t completed = 0;  ///< OK responses
  double wall_s = 0.0;          ///< generation + drain wall time
  /// End-to-end latency (µs) of OK responses per SLA class
  /// (0 = latency-critical, 1 = throughput).
  std::vector<double> latencies_us[2];

  [[nodiscard]] double achieved_rps() const {
    return wall_s > 0.0 ? static_cast<double>(completed) / wall_s : 0.0;
  }
  [[nodiscard]] std::vector<double> all_latencies() const;
  [[nodiscard]] double p50_us() const;
  [[nodiscard]] double p99_us() const;
};

/// Open loop: arrivals at spec.offered_rps with exponential gaps from one
/// generator thread; runs `drain` (if set) before returning.
LoadReport run_open_loop(const SubmitFn& submit, const DrainFn& drain,
                         const WorkloadSpec& spec);
LoadReport run_open_loop(Server& server, const WorkloadSpec& spec);

/// Closed loop: `clients` threads each run submit → wait-for-completion →
/// think (exponential, mean think_ms) until the horizon elapses.
LoadReport run_closed_loop(const SubmitFn& submit, const DrainFn& drain,
                           const WorkloadSpec& spec, int clients,
                           double think_ms = 0.0);

// ---- event-stream arrival mode -------------------------------------------
// Continuous-ingestion traffic: per-client arrival processes on an
// event-time axis. Kept stream-agnostic (plain structs, no stream::
// types) so the serve layer stays below the stream layer; the stream
// benches/tests map EventArrival onto their own Event type.

/// One generated arrival. `event_time_us` is on the synthetic stream
/// timeline (starts at 0), not the wall clock.
struct EventArrival {
  std::string topic;
  std::uint64_t key = 0;
  std::uint64_t event_time_us = 0;
  double value = 0.0;
  std::uint64_t seed = 0;          ///< per-event randomness root
  bool latency_critical = false;
  int client = 0;                  ///< producing client
};

struct EventStreamSpec {
  /// Topics drawn uniformly per event (>= 1 required).
  std::vector<std::string> topics;
  /// Independent producers, each with its own deterministic substream.
  int clients = 4;
  /// Aggregate offered event rate across all clients.
  double events_per_s = 10'000.0;
  /// Event-time horizon of the schedule.
  std::chrono::milliseconds duration{500};
  enum class Arrival {
    kPoisson,  ///< per-client exponential gaps (smooth sensor traffic)
    kBurst,    ///< back-to-back bursts separated by idle gaps (batched
               ///< uplinks, e.g. an FCD gateway flushing)
  };
  Arrival arrival = Arrival::kPoisson;
  /// Burst mode: events per burst and idle gap as a multiple of the
  /// burst's own span.
  std::size_t burst_len = 32;
  double burst_idle_factor = 4.0;
  /// Keys drawn uniformly in [0, keys_per_topic) per event.
  std::size_t keys_per_topic = 16;
  /// Fraction of events in the latency-critical admission lane.
  double lc_fraction = 0.0;
  /// Values are uniform in [value_min, value_max) with seeded jitter.
  double value_min = 0.0;
  double value_max = 100.0;
  std::uint64_t seed = 42;
};

/// The full arrival schedule: per-client substreams (each a pure
/// function of spec.seed and the client index) merged and sorted by
/// (event time, client, sequence). Deterministic; no clocks involved.
std::vector<EventArrival> generate_event_arrivals(const EventStreamSpec& spec);

/// Ingestion target: OK = admitted, RESOURCE_EXHAUSTED = load-shed.
using EventSubmitFn = std::function<Status(const EventArrival&)>;

struct EventStreamReport {
  std::uint64_t offered = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  double wall_s = 0.0;

  [[nodiscard]] double achieved_eps() const {
    return wall_s > 0.0 ? static_cast<double>(admitted) / wall_s : 0.0;
  }
};

/// Replays the schedule into `submit`. `pace` true sleeps so wall time
/// tracks event time (latency-realistic); false submits full-throttle
/// (throughput benches).
EventStreamReport run_event_stream(const EventSubmitFn& submit,
                                   const EventStreamSpec& spec,
                                   bool pace = false);

}  // namespace everest::serve
