#include "resilience/circuit_breaker.hpp"

namespace everest::resilience {

void CircuitBreaker::open(double now_us) {
  state_ = BreakerState::kOpen;
  opened_at_us_ = now_us;
  probe_outstanding_ = false;
  half_open_successes_ = 0;
  ++trips_;
}

bool CircuitBreaker::allow(double now_us) {
  switch (state_) {
    case BreakerState::kClosed:
      return true;
    case BreakerState::kOpen:
      if (now_us - opened_at_us_ >= policy_.open_cooldown_us) {
        state_ = BreakerState::kHalfOpen;
        probe_outstanding_ = true;
        return true;  // the probe
      }
      return false;
    case BreakerState::kHalfOpen:
      // One probe at a time: further calls wait for its verdict.
      if (!probe_outstanding_) {
        probe_outstanding_ = true;
        return true;
      }
      return false;
  }
  return true;
}

void CircuitBreaker::record_success(double now_us) {
  (void)now_us;
  consecutive_failures_ = 0;
  if (state_ == BreakerState::kHalfOpen) {
    probe_outstanding_ = false;
    if (++half_open_successes_ >= policy_.close_after_successes) {
      state_ = BreakerState::kClosed;
      half_open_successes_ = 0;
    }
  }
}

void CircuitBreaker::record_failure(double now_us) {
  if (state_ == BreakerState::kHalfOpen) {
    open(now_us);  // failed probe: straight back to open
    return;
  }
  if (state_ == BreakerState::kClosed &&
      ++consecutive_failures_ >= policy_.failure_threshold) {
    consecutive_failures_ = 0;
    open(now_us);
  }
}

bool CircuitBreakerBoard::allow(const std::string& scope,
                                const std::string& id, double now_us) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] =
      breakers_.try_emplace(key(scope, id), CircuitBreaker(policy_));
  return it->second.allow(now_us);
}

void CircuitBreakerBoard::record(const std::string& scope,
                                 const std::string& id, bool success,
                                 double now_us) {
  std::function<void(const std::string&, const std::string&, double)> on_open;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] =
        breakers_.try_emplace(key(scope, id), CircuitBreaker(policy_));
    const int trips_before = it->second.trips();
    if (success) {
      it->second.record_success(now_us);
    } else {
      it->second.record_failure(now_us);
    }
    if (it->second.trips() > trips_before) on_open = on_open_;
  }
  // Outside the lock: the observer may dump a flight bundle.
  if (on_open) on_open(scope, id, now_us);
}

BreakerState CircuitBreakerBoard::state(const std::string& scope,
                                        const std::string& id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = breakers_.find(key(scope, id));
  return it == breakers_.end() ? BreakerState::kClosed : it->second.state();
}

int CircuitBreakerBoard::open_count(const std::string& scope) const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string prefix = scope.empty() ? "" : scope + '\x1f';
  int open = 0;
  for (const auto& [k, breaker] : breakers_) {
    if (!prefix.empty() && k.compare(0, prefix.size(), prefix) != 0) continue;
    if (breaker.state() != BreakerState::kClosed) ++open;
  }
  return open;
}

void CircuitBreakerBoard::set_on_open(
    std::function<void(const std::string&, const std::string&, double)>
        on_open) {
  std::lock_guard<std::mutex> lock(mu_);
  on_open_ = std::move(on_open);
}

int CircuitBreakerBoard::total_trips() const {
  std::lock_guard<std::mutex> lock(mu_);
  int trips = 0;
  for (const auto& [k, breaker] : breakers_) trips += breaker.trips();
  return trips;
}

}  // namespace everest::resilience
