#include "serve/metrics.hpp"

#include <algorithm>

namespace everest::serve {
namespace {

// Latency buckets: 1 µs lower resolution, ×1.5 growth, 64 buckets
// (~1.2e11 µs ceiling) — covers sub-ms service times through pathological
// overload tails.
obs::HistogramOptions latency_buckets() {
  obs::HistogramOptions opt;
  opt.min = 1.0;
  opt.growth = 1.5;
  opt.buckets = 64;
  return opt;
}

// Payload-scale buckets: 1/64x resolution, x1.25 growth, 48 buckets
// (~2^15 ceiling) — covers the feature_bucket range at finer grain.
obs::HistogramOptions scale_buckets() {
  obs::HistogramOptions opt;
  opt.min = 1.0 / 64.0;
  opt.growth = 1.25;
  opt.buckets = 48;
  return opt;
}

}  // namespace

ServingMetrics::ServingMetrics()
    : submitted_(registry_.counter("serve.submitted")),
      admitted_(registry_.counter("serve.admitted")),
      rejected_(registry_.counter("serve.rejected")),
      expired_(registry_.counter("serve.expired")),
      failed_(registry_.counter("serve.failed")),
      completed_(registry_.counter("serve.completed")),
      unavailable_(registry_.counter("serve.unavailable")),
      degraded_(registry_.counter("serve.degraded")),
      input_hits_(registry_.counter("serve.input_hits")),
      input_misses_(registry_.counter("serve.input_misses")),
      // Merge kinds pinned per the registry contract: total stall time
      // partitions across nodes (sum); queue depth is a watermark (max).
      input_stall_us_(registry_.gauge("serve.input_stall_us",
                                      obs::GaugeKind::kSum)),
      max_queue_depth_(registry_.gauge("serve.max_queue_depth",
                                       obs::GaugeKind::kMax)) {
  latency_hist_[0] = registry_.histogram("serve.latency_us", latency_buckets(),
                                         {{"class", "lc"}});
  latency_hist_[1] = registry_.histogram("serve.latency_us", latency_buckets(),
                                         {{"class", "tp"}});
}

void ServingMetrics::record_admitted(std::size_t queue_depth_after) {
  admitted_->inc();
  max_queue_depth_->set_max(static_cast<double>(queue_depth_after));
}

void ServingMetrics::record_batch(std::size_t batch_size, double service_us) {
  std::lock_guard<std::mutex> lock(mu_);
  ++batch_sizes_[batch_size];
  batch_size_.add(static_cast<double>(batch_size));
  service_us_.add(service_us);
}

void ServingMetrics::record_input_stage(std::uint64_t hits,
                                        std::uint64_t misses,
                                        double stall_us) {
  input_hits_->inc(hits);
  input_misses_->inc(misses);
  input_stall_us_->add(stall_us);
}

void ServingMetrics::record_feature(const std::string& kernel,
                                    const std::string& tenant,
                                    double payload_scale,
                                    double service_share_us) {
  const int bucket = feature_bucket(payload_scale);
  FeatureInstruments instruments;
  KernelInstruments kernel_instruments;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Heterogeneous lookup: a hit builds no key, labels, or strings.
    auto it = feature_cache_.find(std::tie(kernel, tenant, bucket));
    if (it == feature_cache_.end()) {
      const obs::Labels tuple_labels = {{"kernel", kernel},
                                        {"tenant", tenant},
                                        {"bucket", std::to_string(bucket)}};
      FeatureInstruments fresh;
      fresh.requests =
          registry_.counter("serve.feature.requests", tuple_labels);
      fresh.service_us = registry_.histogram("serve.feature.service_us",
                                             latency_buckets(), tuple_labels);
      it = feature_cache_.emplace(FeatureKey{kernel, tenant, bucket}, fresh)
               .first;
    }
    instruments = it->second;
    auto kit = kernel_cache_.find(kernel);
    if (kit == kernel_cache_.end()) {
      KernelInstruments fresh;
      fresh.scale = registry_.histogram("serve.feature.scale", scale_buckets(),
                                        {{"kernel", kernel}});
      // kLastWrite pinned here, the registration site: an instantaneous
      // node-local value the cross-node rollup must drop, per the PR 9
      // GaugeKind contract.
      fresh.last_scale = registry_.gauge("serve.feature.last_scale",
                                         obs::GaugeKind::kLastWrite,
                                         {{"kernel", kernel}});
      kit = kernel_cache_.emplace(kernel, fresh).first;
    }
    kernel_instruments = kit->second;
  }
  instruments.requests->inc();
  instruments.service_us->record(service_share_us);
  kernel_instruments.scale->record(payload_scale);
  kernel_instruments.last_scale->set(payload_scale);
}

void ServingMetrics::record_completion(SlaClass sla, double latency_us) {
  completed_->inc();
  latency_hist_[static_cast<int>(sla)]->record(latency_us);
  std::lock_guard<std::mutex> lock(mu_);
  latencies_us_[static_cast<int>(sla)].push_back(latency_us);
}

MetricsSnapshot ServingMetrics::snapshot() const {
  MetricsSnapshot snap;
  snap.submitted = submitted_->value();
  snap.admitted = admitted_->value();
  snap.rejected = rejected_->value();
  snap.expired = expired_->value();
  snap.failed = failed_->value();
  snap.completed = completed_->value();
  snap.unavailable = unavailable_->value();
  snap.degraded = degraded_->value();
  snap.input_hits = input_hits_->value();
  snap.input_misses = input_misses_->value();
  snap.input_stall_us = input_stall_us_->value();
  snap.max_queue_depth = static_cast<std::size_t>(max_queue_depth_->value());

  // Copy under the lock, sort outside it: record_completion() on the
  // workers waits only for the copy.
  std::vector<double> lc, tp;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snap.batch_histogram = batch_sizes_;
    lc = latencies_us_[0];
    tp = latencies_us_[1];
    snap.service_mean_us = service_us_.mean();
    snap.mean_batch_size = batch_size_.mean();
  }
  snap.batches = 0;
  for (const auto& [size, n] : snap.batch_histogram) snap.batches += n;
  // The mean sums LC then TP in arrival order, as over their concatenation.
  double sum = 0.0;
  for (double v : lc) sum += v;
  for (double v : tp) sum += v;
  std::sort(lc.begin(), lc.end());
  std::sort(tp.begin(), tp.end());
  std::vector<double> all(lc.size() + tp.size());
  std::merge(lc.begin(), lc.end(), tp.begin(), tp.end(), all.begin());
  if (!all.empty()) {
    snap.p50_us = percentile_of_sorted(all, 50.0);
    snap.p99_us = percentile_of_sorted(all, 99.0);
    snap.mean_us = sum / static_cast<double>(all.size());
    snap.max_us = all.back();
  }
  if (!lc.empty()) snap.lc_p99_us = percentile_of_sorted(lc, 99.0);
  if (!tp.empty()) snap.tp_p99_us = percentile_of_sorted(tp, 99.0);
  return snap;
}

obs::HistogramSnapshot ServingMetrics::latency_histogram() const {
  obs::HistogramSnapshot merged = latency_hist_[0]->snapshot();
  merged.merge(latency_hist_[1]->snapshot());
  return merged;
}

void ServingMetrics::reset() {
  registry_.reset();
  std::lock_guard<std::mutex> lock(mu_);
  latencies_us_[0].clear();
  latencies_us_[1].clear();
  batch_sizes_.clear();
  service_us_ = OnlineStats{};
  batch_size_ = OnlineStats{};
}

}  // namespace everest::serve
