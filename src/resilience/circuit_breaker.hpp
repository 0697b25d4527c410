// Circuit breakers for graceful degradation: a per-(scope, variant)
// closed → open → half-open state machine. Repeated failures trip the
// breaker; while open the variant is withheld from selection (the
// autotuner falls back to the next eligible variant, e.g. FPGA → CPU)
// instead of failing requests. After a cooldown one probe is let through;
// success re-closes the breaker, failure re-opens it. UNAVAILABLE is
// reported only when every variant of a kernel is withheld.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>

namespace everest::resilience {

struct BreakerPolicy {
  /// Consecutive failures that trip the breaker.
  int failure_threshold = 3;
  /// Time the breaker stays open before allowing a half-open probe (us on
  /// the caller's clock — wall or simulated).
  double open_cooldown_us = 5e5;
  /// Successful probes required in half-open before closing again.
  int close_after_successes = 1;
};

enum class BreakerState : std::uint8_t { kClosed, kOpen, kHalfOpen };

/// One breaker. Not thread-safe on its own; CircuitBreakerBoard adds the
/// lock.
class CircuitBreaker {
 public:
  explicit CircuitBreaker(BreakerPolicy policy = {}) : policy_(policy) {}

  /// Whether a call may proceed now. Transitions kOpen → kHalfOpen once
  /// the cooldown elapsed (the probe call).
  bool allow(double now_us);
  void record_success(double now_us);
  void record_failure(double now_us);

  [[nodiscard]] BreakerState state() const { return state_; }
  /// Times the breaker transitioned closed/half-open → open.
  [[nodiscard]] int trips() const { return trips_; }

 private:
  void open(double now_us);

  BreakerPolicy policy_;
  BreakerState state_ = BreakerState::kClosed;
  int consecutive_failures_ = 0;
  int half_open_successes_ = 0;
  double opened_at_us_ = 0.0;
  bool probe_outstanding_ = false;
  int trips_ = 0;
};

/// Thread-safe keyed collection of breakers. Keys are (scope, id) pairs —
/// e.g. (node name, variant id) or (kernel, variant id) — so degradation
/// is tracked per place-and-implementation, exactly the granularity at
/// which cloudFPGA failures occur.
class CircuitBreakerBoard {
 public:
  explicit CircuitBreakerBoard(BreakerPolicy policy = {}) : policy_(policy) {}

  bool allow(const std::string& scope, const std::string& id, double now_us);
  void record(const std::string& scope, const std::string& id, bool success,
              double now_us);

  [[nodiscard]] BreakerState state(const std::string& scope,
                                   const std::string& id) const;
  /// Breakers currently not closed within `scope` ("" = all scopes).
  [[nodiscard]] int open_count(const std::string& scope = "") const;
  [[nodiscard]] int total_trips() const;

  /// Observer invoked (outside the board lock) every time a breaker
  /// transitions to open — the flight-recorder trigger point. Set it
  /// before traffic starts; there is no unregistration.
  void set_on_open(
      std::function<void(const std::string& scope, const std::string& id,
                         double now_us)>
          on_open);

 private:
  static std::string key(const std::string& scope, const std::string& id) {
    return scope + '\x1f' + id;
  }

  mutable std::mutex mu_;
  BreakerPolicy policy_;
  std::map<std::string, CircuitBreaker> breakers_;
  std::function<void(const std::string&, const std::string&, double)> on_open_;
};

}  // namespace everest::resilience
