// FaultPlan: a deterministic, seed-reproducible chaos schedule injected
// into the discrete-event simulations (paper §IV: the runtime must "react
// to changing workload conditions" — on disaggregated cloudFPGA nodes
// crashes, link trouble, and failed partial reconfigurations are normal
// events, not exceptions). A plan is an ordered list of timed fault
// events; the same plan + the same simulation seed reproduces the same
// event trace byte for byte.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace everest::resilience {

/// What goes wrong.
enum class FaultKind : std::uint8_t {
  /// Node/worker dies at `at_us` and restarts after `duration_us`.
  /// Running work is lost; stored outputs on the node are lost.
  kNodeCrash = 0,
  /// Transfers touching the target are stretched by `magnitude` during
  /// the window.
  kLinkDegrade,
  /// The target is unreachable during the window: transfers to/from it
  /// block until the partition heals.
  kLinkPartition,
  /// Compute on the target is slowed by `magnitude` during the window
  /// (a straggling worker).
  kStraggler,
  /// Task executions on the target fail with probability `magnitude`
  /// during the window (transient software error).
  kTransientError,
  /// FPGA partial reconfiguration on the target fails with probability
  /// `magnitude` (interpreted by the platform/runtime layers).
  kReconfigFail,
  /// Disk writes/fsyncs on the target fail with EIO during the window.
  /// `magnitude` in (0,1) makes failed writes short (that fraction of
  /// the frame lands on disk before the error — the torn-tail case).
  kDiskIoError,
  /// Disk writes on the target fail with ENOSPC during the window (the
  /// graceful-degradation trigger: seal, go read-only, resume after).
  kDiskIoFull,
  /// Silent media corruption: writes and reads on the target have one
  /// bit flipped per `magnitude` operations (1.0 = every op) — caught
  /// by frame CRCs at read time and by the background scrubber.
  kDiskIoCorrupt,
  /// fsync on the target is stretched by `magnitude` µs during the
  /// window (a browning-out device, not a failing one).
  kDiskIoSlow,
};

std::string_view to_string(FaultKind kind);

/// One scheduled fault.
struct FaultEvent {
  FaultKind kind = FaultKind::kTransientError;
  /// Injection time (us, simulation clock).
  double at_us = 0.0;
  /// Window length (crash downtime, degradation window, ...).
  double duration_us = 0.0;
  /// Worker/node index; kAllTargets = every worker.
  int target = 0;
  /// Kind-specific severity: slowdown/stretch factor (>= 1) or failure
  /// probability (0..1).
  double magnitude = 1.0;

  static constexpr int kAllTargets = -1;

  [[nodiscard]] bool covers(int worker, double now_us) const {
    return (target == kAllTargets || target == worker) && now_us >= at_us &&
           now_us < at_us + duration_us;
  }
  [[nodiscard]] std::string to_string() const;
};

/// Knobs for FaultPlan::random(): independent Poisson processes per fault
/// kind over a horizon. A rate of zero disables that kind.
struct ChaosSpec {
  double horizon_us = 1e6;
  double crash_rate_per_s = 0.0;
  double mean_downtime_us = 5e4;
  double degrade_rate_per_s = 0.0;
  double degrade_factor = 4.0;
  double mean_degrade_us = 1e5;
  double straggler_rate_per_s = 0.0;
  double straggler_slowdown = 4.0;
  double mean_straggle_us = 1e5;
  /// Blanket transient-error probability over the whole horizon
  /// (0 disables; applied to all workers).
  double transient_error_probability = 0.0;
};

/// An ordered (by time, then insertion) chaos schedule. Builder methods
/// return *this so plans read as one expression.
class FaultPlan {
 public:
  FaultPlan& crash(int node, double at_us, double downtime_us);
  FaultPlan& degrade_link(int node, double at_us, double duration_us,
                          double factor);
  FaultPlan& partition(int node, double at_us, double duration_us);
  FaultPlan& straggler(int node, double at_us, double duration_us,
                       double slowdown);
  FaultPlan& transient_errors(int node, double at_us, double duration_us,
                              double probability);
  FaultPlan& reconfig_failure(int node, double at_us, double duration_us,
                              double probability);
  FaultPlan& disk_corrupt(int node, double at_us, double duration_us,
                          double flip_rate = 1.0);
  FaultPlan& add(FaultEvent event);

  [[nodiscard]] const std::vector<FaultEvent>& events() const {
    return events_;
  }
  [[nodiscard]] bool empty() const { return events_.empty(); }
  [[nodiscard]] std::size_t size() const { return events_.size(); }

  /// Active severity of `kind` for `worker` at `now_us`: the product of
  /// the magnitudes of all covering windows (1.0 = nominal). For
  /// probability kinds use max_magnitude() instead.
  [[nodiscard]] double severity(FaultKind kind, int worker,
                                double now_us) const;
  /// Largest covering magnitude (for probability-valued kinds).
  [[nodiscard]] double max_magnitude(FaultKind kind, int worker,
                                     double now_us) const;
  /// End time of the last covering window of `kind` for `worker`
  /// (now_us if none is active).
  [[nodiscard]] double window_end(FaultKind kind, int worker,
                                  double now_us) const;

  /// Deterministic rendering (one event per line) — the byte-identical
  /// reference used by the determinism tests.
  [[nodiscard]] std::string to_string() const;

  /// Seed-reproducible random plan: Poisson arrivals per kind, uniform
  /// targets over `num_workers`. Same (spec, seed, num_workers) =>
  /// identical plan.
  static FaultPlan random(const ChaosSpec& spec, std::uint64_t seed,
                          int num_workers);

 private:
  std::vector<FaultEvent> events_;  // sorted by (at_us, insertion)
};

}  // namespace everest::resilience
