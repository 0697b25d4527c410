// Incremental analytics for the paper's use cases, as streaming
// operators (§VI served continuously instead of one-shot):
//
//   * air quality (§VI-B) — sliding-window plume exceedance: events are
//     receptor concentration readings (µg/m³); each closed window emits
//     the fraction of readings above the regulatory limit per receptor —
//     the same exceedance probability AirQualityForecast computes in
//     batch, maintained incrementally;
//   * traffic (§VI-C) — online PTDR re-routing: events are per-segment
//     speed observations (km/h) from floating-car data; each closed
//     window folds mean observed speed per segment into a persistent
//     speed overlay on the shared road network, re-evaluates every
//     monitored origin/destination pair under the overlay, and switches
//     to an alternative route when it beats the current one by a
//     threshold. One output per pair per trigger: the chosen route's
//     expected travel seconds.
//
// Plus generic accumulators (count/mean) for tests and benches.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "apps/traffic.hpp"
#include "stream/window.hpp"

namespace everest::stream {

/// Σvalue / count over the window (0 when empty).
[[nodiscard]] AccumulatorFactory mean_accumulator();
/// Number of readings in the window.
[[nodiscard]] AccumulatorFactory count_accumulator();
/// Fraction of readings with value > limit (the §VI-B exceedance
/// probability at one receptor).
[[nodiscard]] AccumulatorFactory exceedance_accumulator(double limit);

/// Sliding-window plume exceedance per receptor. Events: key = receptor
/// index, value = ground-level concentration (µg/m³).
std::unique_ptr<Operator> make_plume_exceedance_operator(
    std::string topic, WindowSpec spec, double limit_ugm3,
    std::string name = "plume_exceedance");

/// One monitored origin/destination pair for online re-routing.
struct OdPair {
  std::size_t from = 0;
  std::size_t to = 0;
};

struct PtdrRerouteConfig {
  /// Re-route when an alternative beats the current route's expected
  /// time by more than this fraction (hysteresis against flapping).
  double reroute_threshold = 0.05;
  /// Alternatives evaluated per trigger (iterative edge-penalization).
  int alternatives = 3;
  /// Hour of day the initial routes are computed for.
  int initial_hour = 8;
  /// Observed-speed overlay clamp (fraction of free-flow).
  double min_speed_factor = 0.05;
  double max_speed_factor = 2.0;
};

/// Online PTDR re-routing on speed updates. Events: key = road-segment
/// index, value = observed speed (km/h). Deterministic: expected times
/// under the speed overlay, no Monte Carlo on the hot path.
class PtdrRerouteOperator : public Operator {
 public:
  PtdrRerouteOperator(std::string name, std::string topic, WindowSpec spec,
                      std::shared_ptr<const apps::RoadNetwork> network,
                      std::vector<OdPair> pairs, PtdrRerouteConfig config);

  bool offer(const Event& event) override;
  void advance_watermark(std::uint64_t watermark_us,
                         std::vector<WindowOutput>* out) override;
  [[nodiscard]] std::uint64_t watermark_us() const override {
    return inner_.watermark_us();
  }
  [[nodiscard]] std::uint64_t allowed_lateness_us() const override {
    return inner_.allowed_lateness_us();
  }
  [[nodiscard]] std::uint64_t max_window_span_us() const override {
    return inner_.max_window_span_us();
  }
  void reset() override;
  [[nodiscard]] const OperatorStats& stats() const override { return stats_; }

  /// Route switches since construction/reset.
  [[nodiscard]] std::uint64_t rerouted() const { return rerouted_; }
  /// Current route of one monitored pair (segment indices).
  [[nodiscard]] const std::vector<std::size_t>& route(std::size_t pair) const {
    return routes_[pair];
  }

 private:
  /// Expected travel seconds of `path` departing at `hour`, with each
  /// segment's profile speed scaled by the observed overlay factor.
  [[nodiscard]] double path_time_s(const std::vector<std::size_t>& path,
                                   int hour) const;
  void init_routes();

  WindowedOperator inner_;  ///< mean observed speed per segment
  std::shared_ptr<const apps::RoadNetwork> network_;
  std::vector<OdPair> pairs_;
  PtdrRerouteConfig config_;
  std::vector<std::vector<std::size_t>> routes_;  ///< current path per pair
  std::vector<double> overlay_;  ///< per-segment observed/free-flow factor
  std::uint64_t rerouted_ = 0;
  OperatorStats stats_;
  std::vector<WindowOutput> scratch_;
};

}  // namespace everest::stream
