#include "resilience/detector.hpp"

namespace everest::resilience {

void PhiAccrualDetector::heartbeat(double now_us) {
  if (last_us_ >= 0.0) {
    const double interval = now_us - last_us_;
    mean_interval_us_ += kAlpha * (interval - mean_interval_us_);
  }
  last_us_ = now_us;
}

double PhiAccrualDetector::phi(double now_us) const {
  if (last_us_ < 0.0) return 0.0;
  const double silence = now_us - last_us_;
  if (silence <= 0.0 || mean_interval_us_ <= 0.0) return 0.0;
  // P(silence | alive) = exp(-silence/mean) under exponential arrivals;
  // phi = -log10(P) = silence/mean * log10(e).
  constexpr double kLog10E = 0.4342944819032518;
  return silence / mean_interval_us_ * kLog10E;
}

HealthRegistry::HealthRegistry(std::size_t workers,
                               double expected_interval_us,
                               double suspect_phi, double dead_phi)
    : suspect_phi_(suspect_phi), dead_phi_(dead_phi) {
  entries_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    entries_.push_back(Entry{PhiAccrualDetector(expected_interval_us),
                             Health::kHealthy});
  }
}

void HealthRegistry::heartbeat(std::size_t worker, double now_us) {
  Entry& e = entries_[worker];
  e.detector.heartbeat(now_us);
  e.health = Health::kHealthy;
}

void HealthRegistry::reset(std::size_t worker, double expected_interval_us) {
  entries_[worker].detector = PhiAccrualDetector(expected_interval_us);
}

std::vector<std::size_t> HealthRegistry::update(double now_us) {
  std::vector<std::size_t> newly_dead;
  for (std::size_t w = 0; w < entries_.size(); ++w) {
    Entry& e = entries_[w];
    if (e.health == Health::kDead) continue;  // sticky until heartbeat
    const double score = e.detector.phi(now_us);
    if (score >= dead_phi_) {
      e.health = Health::kDead;
      newly_dead.push_back(w);
    } else if (score >= suspect_phi_) {
      e.health = Health::kSuspected;
    } else {
      e.health = Health::kHealthy;
    }
  }
  return newly_dead;
}

std::size_t HealthRegistry::healthy_count() const {
  std::size_t n = 0;
  for (const Entry& e : entries_) {
    if (e.health == Health::kHealthy) ++n;
  }
  return n;
}

}  // namespace everest::resilience
