// Request/response model of the serving layer (ROADMAP north star: turn
// the demonstrator into a service that sustains heavy concurrent traffic).
// A Request names a servable kernel, carries an SLA class and an absolute
// deadline; a Response reports the outcome plus the measured latency split
// and the variant the autotuner picked for the batch it rode in.
#pragma once

#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <string>

#include "common/status.hpp"
#include "obs/trace.hpp"

namespace everest::serve {

using Clock = std::chrono::steady_clock;

/// Service classes with different latency objectives (paper §IV: the
/// runtime honours "dynamic requirements" per request, not per process).
enum class SlaClass : std::uint8_t {
  /// Interactive traffic: small batches, tight deadline, dispatched first.
  kLatencyCritical = 0,
  /// Bulk/analytics traffic: batched aggressively for throughput.
  kThroughput = 1,
};

/// Log2 bucket of a request's data-volume scale — the "data feature" axis
/// of the serving layer's shape histograms and the JIT's hot-tuple key.
/// Bucket b covers scales in [2^(b-0.5), 2^(b+0.5)); clamped to ±16 so a
/// garbage scale cannot explode registry cardinality.
inline int feature_bucket(double payload_scale) {
  if (!(payload_scale > 0.0)) return 0;
  const double b = std::lround(std::log2(payload_scale));
  return static_cast<int>(b < -16 ? -16 : (b > 16 ? 16 : b));
}

/// Representative scale of a feature bucket (the center the JIT
/// specializes for): inverse of feature_bucket at bucket centers.
inline double feature_bucket_scale(int bucket) {
  return std::exp2(static_cast<double>(bucket));
}

/// One unit of client work addressed to a servable kernel.
struct Request {
  /// Assigned by the server at admission; unique per server instance.
  std::uint64_t id = 0;
  /// Endpoint/kernel name registered with the server.
  std::string kernel;
  SlaClass sla = SlaClass::kThroughput;
  /// Data-volume scale relative to the profiled size (autotuner feature).
  double payload_scale = 1.0;
  /// Originating tenant ("" = anonymous). Third axis of the JIT's hot
  /// (kernel, data-feature, tenant) tuples; labels the per-kernel shape
  /// histograms the serving layer exports.
  std::string tenant;
  /// Named input data object this request reads ("" = no input staging).
  /// Repeated keys hit the server's input cache — warm replicas for
  /// repeated same-tenant requests.
  std::string data_key;
  /// Size of that input (bytes); a cache miss pays its transfer time.
  double input_bytes = 0.0;
  /// Per-request randomness root so replays are deterministic.
  std::uint64_t seed = 0;
  /// Absolute deadline; expired requests are dropped at dispatch time.
  Clock::time_point deadline = Clock::time_point::max();
  /// Stamped at admission.
  Clock::time_point enqueue_time{};
  /// Root span id for this request's trace (0 = tracing off). Assigned
  /// at admission; the span itself is emitted when the outcome is known.
  std::uint64_t span_id = 0;
  /// Propagated trace identity. When valid (a federation forward, a
  /// stream delivery), the server's spans join THIS trace, parented
  /// under trace.parent_span, instead of opening a fresh per-server
  /// trace — the cross-node stitching contract (DESIGN.md row 19).
  obs::TraceContext trace;
};

/// Outcome delivered to the completion callback.
struct Response {
  std::uint64_t id = 0;
  /// OK, or why the request never executed (RESOURCE_EXHAUSTED at
  /// admission, DEADLINE_EXCEEDED at dispatch, INTERNAL on handler error).
  Status status;
  /// Scalar endpoint result (forecast MW, µg/m³, route seconds, ...).
  double value = 0.0;
  /// enqueue → completion, including queueing and batching delay (µs).
  double latency_us = 0.0;
  /// Handler execution time of the batch this request rode in (µs).
  double service_us = 0.0;
  /// Size of that batch.
  std::size_t batch_size = 0;
  /// Variant the autotuner selected for the batch ("" when dropped).
  std::string variant_id;
  /// True when the answer was produced in degraded mode: circuit breakers
  /// withheld the preferred variant and a fallback served the request.
  bool degraded = false;
};

/// Completion callback; invoked exactly once per submitted request, from a
/// worker thread (or inline from submit() on admission rejection).
using ResponseCallback = std::function<void(const Response&)>;

}  // namespace everest::serve
