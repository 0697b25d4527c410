// Hardware-monitor anomaly detection and the "auto-protection" escalation
// policy (paper §III-B: "dedicated hardware monitors will detect anomalies
// with respect to the expected data behaviors (timing patterns, access
// patterns, typical sizes and ranges), activating proper dynamic adaptation
// in the form of auto-protection").
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/stats.hpp"

namespace everest::security {

/// The behavioral features a hardware monitor reports per task invocation.
struct BehaviorSample {
  double latency_us = 0.0;      // timing pattern
  double bytes = 0.0;           // typical size
  double value_range = 0.0;     // max-min of the data values
  double access_stride = 1.0;   // dominant access pattern
};

/// Per-feature EWMA/z-score detector with a warm-up period.
class AnomalyDetector {
 public:
  struct Options {
    double alpha = 0.05;        // EWMA smoothing
    double z_threshold = 4.0;   // |z| above this flags the feature
    int warmup_samples = 20;    // no flags until this many samples
  };

  AnomalyDetector() = default;
  explicit AnomalyDetector(Options options) : options_(options) {}

  /// Outcome of scoring one sample.
  struct Verdict {
    bool anomalous = false;
    double max_z = 0.0;
    std::string feature;  // which feature tripped
  };

  /// Scores the sample against the learned baseline, then absorbs it.
  Verdict observe(const BehaviorSample& sample);

  [[nodiscard]] int samples_seen() const { return n_; }

 private:
  Options options_{};
  Ewma latency_{0.05}, bytes_{0.05}, range_{0.05}, stride_{0.05};
  int n_ = 0;
};

/// Escalation levels of the auto-protection policy.
enum class ProtectionLevel : std::uint8_t {
  kNormal = 0,     // plain variants allowed
  kMonitor,        // log + prefer DIFT-instrumented variants
  kProtect,        // require DIFT + encrypted variants
  kQuarantine,     // stop dispatching the kernel entirely
};

/// Maps a stream of anomaly verdicts to a protection level with hysteresis:
/// consecutive anomalies escalate, sustained clean behavior de-escalates.
class AutoProtectionPolicy {
 public:
  struct Options {
    int escalate_after = 3;     // consecutive anomalies per step up
    int calm_after = 50;        // consecutive clean samples per step down
  };

  AutoProtectionPolicy() = default;
  explicit AutoProtectionPolicy(Options options) : options_(options) {}

  /// Feeds one verdict; returns the (possibly new) level.
  ProtectionLevel update(const AnomalyDetector::Verdict& verdict);

  [[nodiscard]] ProtectionLevel level() const { return level_; }

 private:
  Options options_{};
  ProtectionLevel level_ = ProtectionLevel::kNormal;
  int anomaly_streak_ = 0;
  int clean_streak_ = 0;
};

}  // namespace everest::security
