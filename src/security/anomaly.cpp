#include "security/anomaly.hpp"

#include <cmath>

namespace everest::security {

AnomalyDetector::Verdict AnomalyDetector::observe(const BehaviorSample& s) {
  Verdict verdict;
  struct Feature {
    const char* name;
    Ewma* ewma;
    double value;
  };
  Feature features[] = {
      {"latency", &latency_, s.latency_us},
      {"bytes", &bytes_, s.bytes},
      {"range", &range_, s.value_range},
      {"stride", &stride_, s.access_stride},
  };
  if (n_ >= options_.warmup_samples) {
    for (const Feature& f : features) {
      const double z = std::abs(f.ewma->zscore(f.value));
      if (z > verdict.max_z) {
        verdict.max_z = z;
        verdict.feature = f.name;
      }
    }
    verdict.anomalous = verdict.max_z > options_.z_threshold;
  }
  // Absorb the sample only when it looks benign, so an attacker cannot
  // slowly poison the baseline during an active anomaly.
  if (!verdict.anomalous) {
    for (Feature& f : features) f.ewma->add(f.value);
    ++n_;
  }
  return verdict;
}

ProtectionLevel AutoProtectionPolicy::update(
    const AnomalyDetector::Verdict& verdict) {
  if (verdict.anomalous) {
    clean_streak_ = 0;
    if (++anomaly_streak_ >= options_.escalate_after &&
        level_ != ProtectionLevel::kQuarantine) {
      level_ = static_cast<ProtectionLevel>(static_cast<int>(level_) + 1);
      anomaly_streak_ = 0;
    }
  } else {
    anomaly_streak_ = 0;
    if (++clean_streak_ >= options_.calm_after &&
        level_ != ProtectionLevel::kNormal) {
      level_ = static_cast<ProtectionLevel>(static_cast<int>(level_) - 1);
      clean_streak_ = 0;
    }
  }
  return level_;
}

}  // namespace everest::security
