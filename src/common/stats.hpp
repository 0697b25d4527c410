// Streaming and batch statistics used by monitors, the autotuner knowledge
// base, and benchmark reports.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace everest {

/// Welford online mean/variance accumulator.
class OnlineStats {
 public:
  void add(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = n_ == 1 ? x : std::min(min_, x);
    max_ = n_ == 1 ? x : std::max(max_, x);
  }

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return mean_; }
  [[nodiscard]] double variance() const {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  [[nodiscard]] double stddev() const { return std::sqrt(variance()); }
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }

  void merge(const OnlineStats& other) {
    if (other.n_ == 0) return;
    if (n_ == 0) { *this = other; return; }
    const double na = static_cast<double>(n_);
    const double nb = static_cast<double>(other.n_);
    const double delta = other.mean_ - mean_;
    const double total = na + nb;
    mean_ += delta * nb / total;
    m2_ += other.m2_ + delta * delta * na * nb / total;
    n_ += other.n_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Exponentially weighted moving average with optional variance tracking
/// (used by the runtime anomaly monitors).
class Ewma {
 public:
  explicit Ewma(double alpha = 0.1) : alpha_(alpha) {}

  void add(double x) {
    if (!initialized_) {
      mean_ = x;
      var_ = 0.0;
      initialized_ = true;
      return;
    }
    const double delta = x - mean_;
    mean_ += alpha_ * delta;
    var_ = (1.0 - alpha_) * (var_ + alpha_ * delta * delta);
  }

  [[nodiscard]] bool initialized() const { return initialized_; }
  [[nodiscard]] double mean() const { return mean_; }
  [[nodiscard]] double variance() const { return var_; }
  [[nodiscard]] double stddev() const { return std::sqrt(var_); }

  /// Largest magnitude zscore() reports. A degenerate stream (zero
  /// variance) makes the true z-score unbounded; callers compare scores
  /// against single-digit thresholds, so any value past the cap carries no
  /// extra information and a finite cap keeps downstream arithmetic
  /// (averaging scores, subtracting thresholds) out of overflow territory.
  static constexpr double kZscoreCap = 1e6;

  /// Standardized deviation of x from the tracked mean; 0 until warm.
  /// Results are clamped to [-kZscoreCap, kZscoreCap]; a deviation from a
  /// zero-variance stream saturates at the cap.
  [[nodiscard]] double zscore(double x) const {
    if (!initialized_) return 0.0;
    const double s = stddev();
    if (s < 1e-12) {
      return x == mean_ ? 0.0 : (x > mean_ ? kZscoreCap : -kZscoreCap);
    }
    return std::clamp((x - mean_) / s, -kZscoreCap, kZscoreCap);
  }

 private:
  double alpha_;
  double mean_ = 0.0;
  double var_ = 0.0;
  bool initialized_ = false;
};

/// Batch percentile (linear interpolation); p in [0,100]. Copies its input.
double percentile(std::vector<double> values, double p);

/// percentile() of input already sorted ascending: reads several
/// percentiles of one sample set with one sort.
double percentile_of_sorted(const std::vector<double>& sorted, double p);

/// Arithmetic mean of a vector (0 for empty).
double mean_of(const std::vector<double>& values);

/// Root-mean-square error between two equally sized series.
double rmse(const std::vector<double>& a, const std::vector<double>& b);

/// Pearson correlation coefficient (0 for degenerate input).
double pearson(const std::vector<double>& a, const std::vector<double>& b);

}  // namespace everest
