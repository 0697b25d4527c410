#include "obs/slo.hpp"

#include <algorithm>
#include <cmath>

namespace everest::obs {

std::string_view to_string(SloAlertState state) {
  switch (state) {
    case SloAlertState::kOk: return "ok";
    case SloAlertState::kFastBurn: return "fast-burn";
    case SloAlertState::kPage: return "page";
  }
  return "?";
}

SloMonitor::SloMonitor(Registry* registry) : registry_(registry) {}

void SloMonitor::add_objective(SloObjective objective) {
  std::lock_guard<std::mutex> lock(mu_);
  Objective o;
  o.spec = std::move(objective);
  if (o.spec.bucket_us <= 0.0) o.spec.bucket_us = 250'000.0;
  if (o.spec.target >= 1.0) o.spec.target = 1.0 - 1e-9;
  if (registry_ != nullptr) {
    const Labels labels = {{"slo", o.spec.key}};
    o.burn_fast = registry_->gauge("slo.burn_fast", GaugeKind::kMax, labels);
    o.burn_slow = registry_->gauge("slo.burn_slow", GaugeKind::kMax, labels);
    o.pages = registry_->counter("slo.pages", labels);
  }
  objectives_.emplace(o.spec.key, std::move(o));
}

void SloMonitor::record(const std::string& key, double latency_us, bool ok,
                        double now_us) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = objectives_.find(key);
  if (it == objectives_.end()) return;
  Objective& o = it->second;
  const double bucket_start =
      std::floor(now_us / o.spec.bucket_us) * o.spec.bucket_us;
  if (o.buckets.empty() || o.buckets.back().start_us < bucket_start) {
    o.buckets.push_back(Bucket{bucket_start, 0, 0});
  }
  // Late events (now_us behind the open bucket) land in the open bucket:
  // burn rates tolerate that granularity error by construction.
  Bucket& bucket = o.buckets.back();
  const bool good = ok && latency_us <= o.spec.latency_threshold_us;
  if (good) {
    ++bucket.good;
  } else {
    ++bucket.bad;
  }
  // Prune beyond the slow window (+1 bucket of slack for edge overlap).
  const double horizon = now_us - o.spec.slow_window_us - o.spec.bucket_us;
  while (!o.buckets.empty() && o.buckets.front().start_us +
                                       o.spec.bucket_us <
                                   horizon) {
    o.buckets.pop_front();
  }
}

double SloMonitor::burn_rate(const Objective& o, double now_us,
                             double window_us, std::uint64_t* good,
                             std::uint64_t* bad) {
  std::uint64_t g = 0, b = 0;
  const double start = now_us - window_us;
  for (const Bucket& bucket : o.buckets) {
    // A bucket counts when any part of it overlaps the window.
    if (bucket.start_us + o.spec.bucket_us <= start) continue;
    if (bucket.start_us > now_us) continue;
    g += bucket.good;
    b += bucket.bad;
  }
  *good = g;
  *bad = b;
  const std::uint64_t total = g + b;
  if (total == 0) return 0.0;
  const double bad_fraction =
      static_cast<double>(b) / static_cast<double>(total);
  const double budget = 1.0 - o.spec.target;
  return bad_fraction / budget;
}

std::vector<SloAlert> SloMonitor::evaluate(double now_us) {
  std::vector<SloAlert> alerts;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [key, o] : objectives_) {
      SloStatusReport& r = o.report;
      r.fast_burn = burn_rate(o, now_us, o.spec.fast_window_us, &r.fast_good,
                              &r.fast_bad);
      r.slow_burn = burn_rate(o, now_us, o.spec.slow_window_us, &r.slow_good,
                              &r.slow_bad);
      if (o.burn_fast != nullptr) o.burn_fast->set(r.fast_burn);
      if (o.burn_slow != nullptr) o.burn_slow->set(r.slow_burn);

      const bool fast_enough = r.fast_good + r.fast_bad >= o.spec.min_events;
      const bool slow_enough = r.slow_good + r.slow_bad >= o.spec.min_events;
      const bool fast_hot =
          fast_enough && r.fast_burn > o.spec.fast_burn_threshold;
      const bool slow_hot =
          slow_enough && r.slow_burn > o.spec.slow_burn_threshold;

      SloAlertState next = r.state;
      switch (r.state) {
        case SloAlertState::kOk:
        case SloAlertState::kFastBurn:
          next = fast_hot ? (slow_hot ? SloAlertState::kPage
                                      : SloAlertState::kFastBurn)
                          : SloAlertState::kOk;
          break;
        case SloAlertState::kPage:
          // Fast recovery: the fast window cooling off clears the page
          // even while the slow window still remembers the incident.
          if (!fast_hot) {
            next = SloAlertState::kOk;
          }
          break;
      }
      if (next != r.state) {
        SloAlert alert;
        alert.key = key;
        alert.from = r.state;
        alert.to = next;
        alert.at_us = now_us;
        alert.fast_burn = r.fast_burn;
        alert.slow_burn = r.slow_burn;
        alerts.push_back(std::move(alert));
        r.state = next;
        r.last_transition_us = now_us;
        if (next == SloAlertState::kPage) {
          ++r.pages;
          if (o.pages != nullptr) o.pages->inc();
        }
      }
    }
  }
  if (on_alert_) {
    for (const SloAlert& alert : alerts) on_alert_(alert);
  }
  return alerts;
}

SloStatusReport SloMonitor::status(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = objectives_.find(key);
  if (it == objectives_.end()) return SloStatusReport{};
  return it->second.report;
}

void SloMonitor::set_on_alert(std::function<void(const SloAlert&)> on_alert) {
  on_alert_ = std::move(on_alert);
}

}  // namespace everest::obs
