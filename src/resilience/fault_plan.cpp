#include "resilience/fault_plan.hpp"

#include <algorithm>
#include <cstdio>

namespace everest::resilience {

std::string_view to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNodeCrash: return "node-crash";
    case FaultKind::kLinkDegrade: return "link-degrade";
    case FaultKind::kLinkPartition: return "link-partition";
    case FaultKind::kStraggler: return "straggler";
    case FaultKind::kTransientError: return "transient-error";
    case FaultKind::kReconfigFail: return "reconfig-fail";
    case FaultKind::kDiskIoError: return "disk-io-error";
    case FaultKind::kDiskIoFull: return "disk-io-full";
    case FaultKind::kDiskIoCorrupt: return "disk-io-corrupt";
    case FaultKind::kDiskIoSlow: return "disk-io-slow";
  }
  return "?";
}

std::string FaultEvent::to_string() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s target=%d at=%.3f dur=%.3f mag=%.4f",
                std::string(resilience::to_string(kind)).c_str(), target,
                at_us, duration_us, magnitude);
  return buf;
}

FaultPlan& FaultPlan::add(FaultEvent event) {
  // Keep sorted by time; stable for equal times (insertion order).
  auto it = std::upper_bound(
      events_.begin(), events_.end(), event,
      [](const FaultEvent& a, const FaultEvent& b) { return a.at_us < b.at_us; });
  events_.insert(it, event);
  return *this;
}

FaultPlan& FaultPlan::crash(int node, double at_us, double downtime_us) {
  return add({FaultKind::kNodeCrash, at_us, downtime_us, node, 1.0});
}

FaultPlan& FaultPlan::degrade_link(int node, double at_us, double duration_us,
                                   double factor) {
  return add({FaultKind::kLinkDegrade, at_us, duration_us, node, factor});
}

FaultPlan& FaultPlan::partition(int node, double at_us, double duration_us) {
  return add({FaultKind::kLinkPartition, at_us, duration_us, node, 1.0});
}

FaultPlan& FaultPlan::straggler(int node, double at_us, double duration_us,
                                double slowdown) {
  return add({FaultKind::kStraggler, at_us, duration_us, node, slowdown});
}

FaultPlan& FaultPlan::transient_errors(int node, double at_us,
                                       double duration_us,
                                       double probability) {
  return add({FaultKind::kTransientError, at_us, duration_us, node,
              probability});
}

FaultPlan& FaultPlan::reconfig_failure(int node, double at_us,
                                       double duration_us,
                                       double probability) {
  return add({FaultKind::kReconfigFail, at_us, duration_us, node,
              probability});
}

FaultPlan& FaultPlan::disk_corrupt(int node, double at_us, double duration_us,
                                   double flip_rate) {
  return add({FaultKind::kDiskIoCorrupt, at_us, duration_us, node, flip_rate});
}

double FaultPlan::severity(FaultKind kind, int worker, double now_us) const {
  double product = 1.0;
  for (const FaultEvent& e : events_) {
    if (e.at_us > now_us) break;
    if (e.kind == kind && e.covers(worker, now_us)) product *= e.magnitude;
  }
  return product;
}

double FaultPlan::max_magnitude(FaultKind kind, int worker,
                                double now_us) const {
  double best = 0.0;
  for (const FaultEvent& e : events_) {
    if (e.at_us > now_us) break;
    if (e.kind == kind && e.covers(worker, now_us)) {
      best = std::max(best, e.magnitude);
    }
  }
  return best;
}

double FaultPlan::window_end(FaultKind kind, int worker, double now_us) const {
  double end = now_us;
  for (const FaultEvent& e : events_) {
    if (e.at_us > now_us) break;
    if (e.kind == kind && e.covers(worker, now_us)) {
      end = std::max(end, e.at_us + e.duration_us);
    }
  }
  return end;
}

std::string FaultPlan::to_string() const {
  std::string out;
  for (const FaultEvent& e : events_) {
    out += e.to_string();
    out += '\n';
  }
  return out;
}

FaultPlan FaultPlan::random(const ChaosSpec& spec, std::uint64_t seed,
                            int num_workers) {
  FaultPlan plan;
  if (num_workers <= 0 || spec.horizon_us <= 0) return plan;
  Rng rng(seed ^ 0xC4A05EULL);

  auto poisson_windows = [&](double rate_per_s, double mean_dur_us,
                             auto&& emit) {
    if (rate_per_s <= 0) return;
    const double rate_per_us = rate_per_s / 1e6;
    double t = rng.exponential(rate_per_us);
    while (t < spec.horizon_us) {
      const int target = static_cast<int>(
          rng.uniform_int(static_cast<std::uint64_t>(num_workers)));
      const double dur = rng.exponential(1.0 / mean_dur_us);
      emit(target, t, dur);
      t += rng.exponential(rate_per_us);
    }
  };

  poisson_windows(spec.crash_rate_per_s, spec.mean_downtime_us,
                  [&](int n, double at, double dur) { plan.crash(n, at, dur); });
  poisson_windows(spec.degrade_rate_per_s, spec.mean_degrade_us,
                  [&](int n, double at, double dur) {
                    plan.degrade_link(n, at, dur, spec.degrade_factor);
                  });
  poisson_windows(spec.straggler_rate_per_s, spec.mean_straggle_us,
                  [&](int n, double at, double dur) {
                    plan.straggler(n, at, dur, spec.straggler_slowdown);
                  });
  if (spec.transient_error_probability > 0) {
    plan.transient_errors(FaultEvent::kAllTargets, 0.0, spec.horizon_us,
                          spec.transient_error_probability);
  }
  return plan;
}

}  // namespace everest::resilience
