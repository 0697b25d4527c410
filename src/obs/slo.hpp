#pragma once

// SloMonitor: per-tenant/per-class service-level objectives evaluated
// with the multi-window burn-rate method. An objective declares what
// "good" means (status OK and latency under a threshold) and how much
// badness the error budget tolerates (target good-fraction). The burn
// rate is bad_fraction / (1 - target): 1.0 spends the budget exactly on
// schedule, N spends it N× too fast.
//
// Two windows make the alert both fast and unflappable:
//   * the FAST window reacts within seconds of a real regression,
//   * the SLOW window must agree, so a single bad bucket cannot page.
// A page clears as soon as the fast window is back under its threshold
// (the fast window is also the fast-recovery signal — the standard SRE
// construction).
//
// Alert transitions invoke a callback; the serving layer hangs load
// shedding and autotuner degradation off it (telemetry steering
// admission), and the flight recorder uses pages as dump triggers.

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/registry.hpp"

namespace everest::obs {

enum class SloAlertState : std::uint8_t {
  kOk = 0,
  /// Fast window burning too hot but the slow window still in budget —
  /// a warning, not a page (brief spikes live here and die here).
  kFastBurn = 1,
  /// Both windows agree the budget is burning: page and act.
  kPage = 2,
};

std::string_view to_string(SloAlertState state);

struct SloObjective {
  /// Objective identity, e.g. "tenant0/tp" or "checkout/lc".
  std::string key;
  /// An event is good iff it succeeded AND latency_us <= this.
  double latency_threshold_us = 10'000.0;
  /// Good-fraction objective (0.99 = 1% error budget).
  double target = 0.99;
  double fast_window_us = 1'000'000.0;
  double slow_window_us = 5'000'000.0;
  /// Burn-rate thresholds per window. Page requires BOTH exceeded.
  double fast_burn_threshold = 4.0;
  double slow_burn_threshold = 1.0;
  /// Accounting granularity; buckets beyond the slow window are pruned.
  double bucket_us = 250'000.0;
  /// Windows with fewer events than this never alert (no paging on
  /// noise when traffic is a trickle).
  std::uint64_t min_events = 20;
};

struct SloStatusReport {
  SloAlertState state = SloAlertState::kOk;
  double fast_burn = 0.0;
  double slow_burn = 0.0;
  std::uint64_t fast_good = 0, fast_bad = 0;
  std::uint64_t slow_good = 0, slow_bad = 0;
  std::uint64_t pages = 0;           ///< lifetime kPage entries
  double last_transition_us = 0.0;
};

struct SloAlert {
  std::string key;
  SloAlertState from = SloAlertState::kOk;
  SloAlertState to = SloAlertState::kOk;
  double at_us = 0.0;
  double fast_burn = 0.0;
  double slow_burn = 0.0;
};

/// Thread-safe: record() streams in from response callbacks on worker
/// threads; evaluate() runs on a control loop. Alert callbacks fire
/// outside the internal lock.
class SloMonitor {
 public:
  /// `registry` (may be null) receives slo.burn_fast/slo.burn_slow
  /// gauges and the slo.pages counter per objective.
  explicit SloMonitor(Registry* registry = nullptr);

  void add_objective(SloObjective objective);

  /// Accounts one event against objective `key` at time `now_us` on the
  /// caller's clock. Unknown keys are ignored (objectives are opt-in).
  void record(const std::string& key, double latency_us, bool ok,
              double now_us);

  /// Re-computes burn rates and runs the alert state machine for every
  /// objective; returns the transitions that occurred. Call at a fixed
  /// cadence (e.g. once per fast_window / 4).
  std::vector<SloAlert> evaluate(double now_us);

  [[nodiscard]] SloStatusReport status(const std::string& key) const;

  /// Invoked (outside the lock) for every transition evaluate() emits.
  void set_on_alert(std::function<void(const SloAlert&)> on_alert);

 private:
  struct Bucket {
    double start_us = 0.0;
    std::uint64_t good = 0;
    std::uint64_t bad = 0;
  };
  struct Objective {
    SloObjective spec;
    std::deque<Bucket> buckets;
    SloStatusReport report;
    Gauge* burn_fast = nullptr;
    Gauge* burn_slow = nullptr;
    Counter* pages = nullptr;
  };

  /// bad_fraction / error_budget over the trailing window; also returns
  /// the totals via the out-params.
  static double burn_rate(const Objective& o, double now_us, double window_us,
                          std::uint64_t* good, std::uint64_t* bad);

  Registry* registry_;
  std::function<void(const SloAlert&)> on_alert_;

  mutable std::mutex mu_;
  std::map<std::string, Objective> objectives_;
};

}  // namespace everest::obs
