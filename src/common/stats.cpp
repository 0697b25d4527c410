#include "common/stats.hpp"

#include <cassert>

namespace everest {

double percentile(std::vector<double> values, double p) {
  std::sort(values.begin(), values.end());
  return percentile_of_sorted(values, p);
}

double percentile_of_sorted(const std::vector<double>& values, double p) {
  if (values.empty()) return 0.0;
  if (p <= 0.0) return values.front();
  if (p >= 100.0) return values.back();
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  if (lo + 1 >= values.size()) return values.back();
  return values[lo] * (1.0 - frac) + values[lo + 1] * frac;
}

double mean_of(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double rmse(const std::vector<double>& a, const std::vector<double>& b) {
  assert(a.size() == b.size());
  if (a.empty()) return 0.0;
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    s += d * d;
  }
  return std::sqrt(s / static_cast<double>(a.size()));
}

double pearson(const std::vector<double>& a, const std::vector<double>& b) {
  assert(a.size() == b.size());
  if (a.size() < 2) return 0.0;
  const double ma = mean_of(a);
  const double mb = mean_of(b);
  double num = 0.0, da = 0.0, db = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    num += (a[i] - ma) * (b[i] - mb);
    da += (a[i] - ma) * (a[i] - ma);
    db += (b[i] - mb) * (b[i] - mb);
  }
  if (da < 1e-300 || db < 1e-300) return 0.0;
  return num / std::sqrt(da * db);
}

}  // namespace everest
