// Heartbeat-based failure detection: a phi-accrual-style suspicion score
// per worker (Hayashibara et al.; the detector Akka/Cassandra ship) over
// an EWMA model of heartbeat inter-arrival times, feeding a health
// registry the schedulers consult. Unlike a binary timeout, phi grows
// continuously with silence, so callers pick their own paranoia level:
// stop dispatching at a low threshold, declare dead (and start recovery)
// at a high one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace everest::resilience {

/// Suspicion score over one heartbeat stream. phi = k * (now - last) /
/// mean_interval with k = log10(e): the exponential-arrival form of the
/// phi-accrual estimator (phi 1 ~ "one decade less likely alive").
class PhiAccrualDetector {
 public:
  /// `expected_interval_us` seeds the inter-arrival model before any
  /// heartbeat pair has been seen.
  explicit PhiAccrualDetector(double expected_interval_us)
      : mean_interval_us_(expected_interval_us) {}

  void heartbeat(double now_us);

  /// Suspicion at `now_us`; 0 before the first heartbeat.
  [[nodiscard]] double phi(double now_us) const;

  [[nodiscard]] double mean_interval_us() const { return mean_interval_us_; }
  [[nodiscard]] double last_heartbeat_us() const { return last_us_; }

 private:
  double mean_interval_us_;
  double last_us_ = -1.0;
  static constexpr double kAlpha = 0.2;  // EWMA weight for new intervals
};

/// Health of one worker as judged by the registry.
enum class Health : std::uint8_t {
  kHealthy = 0,   ///< phi below the suspect threshold
  kSuspected,     ///< phi past suspect: stop dispatching new work
  kDead,          ///< phi past dead: recover its in-flight work
};

/// Per-worker detectors plus the thresholded health state machine.
/// kDead is sticky until a fresh heartbeat arrives (a restarted worker
/// re-enters kHealthy through heartbeat()).
class HealthRegistry {
 public:
  HealthRegistry(std::size_t workers, double expected_interval_us,
                 double suspect_phi = 3.0, double dead_phi = 8.0);

  /// Records a heartbeat; revives kSuspected/kDead workers.
  void heartbeat(std::size_t worker, double now_us);

  /// Reinitializes `worker`'s inter-arrival model (health is untouched).
  /// Call before the first heartbeat of a rejoin: the outage gap is
  /// silence, not an inter-arrival sample, and folding it into the EWMA
  /// would inflate the mean so much that the node's *next* failure takes
  /// orders of magnitude longer to detect.
  void reset(std::size_t worker, double expected_interval_us);

  /// Re-scores every worker; returns the indices that transitioned to
  /// kDead in this pass (each worker is reported dead once per outage).
  std::vector<std::size_t> update(double now_us);

  [[nodiscard]] Health health(std::size_t worker) const {
    return entries_[worker].health;
  }
  [[nodiscard]] bool dispatchable(std::size_t worker) const {
    return entries_[worker].health == Health::kHealthy;
  }
  [[nodiscard]] double phi(std::size_t worker, double now_us) const {
    return entries_[worker].detector.phi(now_us);
  }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] std::size_t healthy_count() const;

 private:
  struct Entry {
    PhiAccrualDetector detector;
    Health health = Health::kHealthy;
  };
  std::vector<Entry> entries_;
  double suspect_phi_;
  double dead_phi_;
};

}  // namespace everest::resilience
