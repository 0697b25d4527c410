// Serving observability, re-backed by obs registry instruments: event
// counters and the queue-depth watermark are lock-free (relaxed-atomic
// Counter/Gauge), end-to-end latency feeds both an exact reservoir
// (for true percentiles) and per-class log-bucketed histograms (for
// mergeable, export-friendly tails). Only the reservoirs and the
// batch-size map still sit behind the mutex. A Snapshot is a consistent
// copy, immune to torn reads: snapshot() copies the reservoirs under the
// mutex and sorts them outside it, so recording never waits on a sort.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "common/stats.hpp"
#include "obs/registry.hpp"
#include "serve/request.hpp"

namespace everest::serve {

/// Consistent point-in-time view of the serving counters.
struct MetricsSnapshot {
  std::uint64_t submitted = 0;  ///< submit() calls (offered load)
  std::uint64_t admitted = 0;   ///< passed admission control
  std::uint64_t rejected = 0;   ///< bounced at admission (queue full)
  std::uint64_t expired = 0;    ///< dropped at dispatch (deadline passed)
  std::uint64_t failed = 0;     ///< handler/selection errors
  std::uint64_t completed = 0;  ///< OK responses delivered
  /// UNAVAILABLE outcomes: every variant withheld by breakers, or load
  /// shed at admission while in degraded mode.
  std::uint64_t unavailable = 0;
  /// OK responses served while the kernel had open breakers (fallback
  /// variant answered — degraded but successful).
  std::uint64_t degraded = 0;
  /// Input staging (Request::data_key through the server's input cache):
  /// distinct keys staged per batch that were warm vs. cold, and the
  /// total modelled stall the cold ones cost.
  std::uint64_t input_hits = 0;
  std::uint64_t input_misses = 0;
  double input_stall_us = 0.0;

  [[nodiscard]] double input_hit_rate() const {
    const std::uint64_t n = input_hits + input_misses;
    return n == 0 ? 0.0
                  : static_cast<double>(input_hits) / static_cast<double>(n);
  }

  /// End-to-end latency stats (µs) per SLA class index
  /// (0 = latency-critical, 1 = throughput) and combined.
  double p50_us = 0.0, p99_us = 0.0, mean_us = 0.0, max_us = 0.0;
  double lc_p99_us = 0.0, tp_p99_us = 0.0;
  /// Handler execution time per batch (µs).
  double service_mean_us = 0.0;

  /// Batch-size → number of batches dispatched at that size.
  std::map<std::size_t, std::uint64_t> batch_histogram;
  double mean_batch_size = 0.0;
  std::uint64_t batches = 0;

  std::size_t max_queue_depth = 0;

  /// Fraction of offered requests bounced at admission.
  [[nodiscard]] double rejection_rate() const {
    return submitted == 0 ? 0.0
                          : static_cast<double>(rejected) /
                                static_cast<double>(submitted);
  }
};

/// Thread-safe metrics sink shared by admission and the workers.
class ServingMetrics {
 public:
  ServingMetrics();

  void record_submitted() { submitted_->inc(); }
  void record_admitted(std::size_t queue_depth_after);
  void record_rejected() { rejected_->inc(); }
  void record_expired() { expired_->inc(); }
  void record_failed() { failed_->inc(); }
  void record_unavailable() { unavailable_->inc(); }
  void record_degraded() { degraded_->inc(); }
  void record_batch(std::size_t batch_size, double service_us);
  void record_completion(SlaClass sla, double latency_us);
  void record_input_stage(std::uint64_t hits, std::uint64_t misses,
                          double stall_us);

  /// Data-feature export (the JIT detector's input signal), recorded per
  /// request at batch dispatch:
  ///   serve.feature.requests{bucket,kernel,tenant}   counter
  ///   serve.feature.service_us{bucket,kernel,tenant} histogram (per-
  ///     request share of the batch's handler time)
  ///   serve.feature.scale{kernel}                    histogram of
  ///     payload_scale (the shape distribution itself)
  ///   serve.feature.last_scale{kernel}               gauge, kLastWrite
  ///     pinned at the registration site (a node-local instantaneous
  ///     value; summing or maxing it across nodes means nothing, so the
  ///     rollup contract drops it from merges).
  /// Instrument pointers are cached per (kernel, tenant, bucket) so the
  /// registry's find-or-create mutex, and every label and key string, is
  /// paid once per new tuple, not per request.
  void record_feature(const std::string& kernel, const std::string& tenant,
                      double payload_scale, double service_share_us);

  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// The backing instrument registry (for JSON/text export alongside
  /// the snapshot API).
  [[nodiscard]] const obs::Registry& registry() const { return registry_; }

  /// Merged (LC + TP) end-to-end latency histogram. Bucket-derived
  /// percentiles agree with the exact reservoir within one bucket width
  /// (bench_e20 checks this).
  [[nodiscard]] obs::HistogramSnapshot latency_histogram() const;

  /// Drops all samples and counters (between bench sweep points).
  void reset();

 private:
  obs::Registry registry_;
  // Cached instrument pointers — stable for the registry's lifetime.
  obs::Counter* submitted_;
  obs::Counter* admitted_;
  obs::Counter* rejected_;
  obs::Counter* expired_;
  obs::Counter* failed_;
  obs::Counter* completed_;
  obs::Counter* unavailable_;
  obs::Counter* degraded_;
  obs::Counter* input_hits_;
  obs::Counter* input_misses_;
  obs::Gauge* input_stall_us_;
  obs::Gauge* max_queue_depth_;
  obs::Histogram* latency_hist_[2];  ///< per SLA class, µs

  mutable std::mutex mu_;  // guards the exact reservoirs + batch map
  std::vector<double> latencies_us_[2];
  std::map<std::size_t, std::uint64_t> batch_sizes_;
  OnlineStats service_us_;
  OnlineStats batch_size_;

  /// Cached feature instruments per (kernel, tenant, bucket) tuple,
  /// found by std::tie of the caller's strings without building a key.
  /// Guarded by mu_.
  using FeatureKey = std::tuple<std::string, std::string, int>;
  struct FeatureInstruments {
    obs::Counter* requests = nullptr;
    obs::Histogram* service_us = nullptr;
  };
  std::map<FeatureKey, FeatureInstruments, std::less<>> feature_cache_;
  /// Per-kernel shape instruments. Guarded by mu_.
  struct KernelInstruments {
    obs::Histogram* scale = nullptr;
    obs::Gauge* last_scale = nullptr;
  };
  std::map<std::string, KernelInstruments, std::less<>> kernel_cache_;
};

}  // namespace everest::serve
