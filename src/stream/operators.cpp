#include "stream/operators.hpp"

#include <algorithm>
#include <utility>

namespace everest::stream {

namespace {

class MeanAccumulator final : public Accumulator {
 public:
  void add(const Event& event) override {
    sum_ += event.value;
    ++count_;
  }
  double finish(std::uint64_t, std::uint64_t) override {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }

 private:
  double sum_ = 0.0;
  std::uint64_t count_ = 0;
};

class CountAccumulator final : public Accumulator {
 public:
  void add(const Event&) override { ++count_; }
  double finish(std::uint64_t, std::uint64_t) override {
    return static_cast<double>(count_);
  }

 private:
  std::uint64_t count_ = 0;
};

class ExceedanceAccumulator final : public Accumulator {
 public:
  explicit ExceedanceAccumulator(double limit) : limit_(limit) {}
  void add(const Event& event) override {
    ++count_;
    if (event.value > limit_) ++exceed_;
  }
  double finish(std::uint64_t, std::uint64_t) override {
    return count_ == 0
               ? 0.0
               : static_cast<double>(exceed_) / static_cast<double>(count_);
  }

 private:
  double limit_;
  std::uint64_t count_ = 0;
  std::uint64_t exceed_ = 0;
};

}  // namespace

AccumulatorFactory mean_accumulator() {
  return [](std::uint64_t) { return std::make_unique<MeanAccumulator>(); };
}

AccumulatorFactory count_accumulator() {
  return [](std::uint64_t) { return std::make_unique<CountAccumulator>(); };
}

AccumulatorFactory exceedance_accumulator(double limit) {
  return [limit](std::uint64_t) {
    return std::make_unique<ExceedanceAccumulator>(limit);
  };
}

std::unique_ptr<Operator> make_plume_exceedance_operator(std::string topic,
                                                         WindowSpec spec,
                                                         double limit_ugm3,
                                                         std::string name) {
  return std::make_unique<WindowedOperator>(std::move(name), std::move(topic),
                                            spec,
                                            exceedance_accumulator(limit_ugm3));
}

PtdrRerouteOperator::PtdrRerouteOperator(
    std::string name, std::string topic, WindowSpec spec,
    std::shared_ptr<const apps::RoadNetwork> network, std::vector<OdPair> pairs,
    PtdrRerouteConfig config)
    : Operator(std::move(name), std::move(topic)),
      inner_("mean_speed", this->topic(), spec, mean_accumulator()),
      network_(std::move(network)),
      pairs_(std::move(pairs)),
      config_(config),
      overlay_(network_->num_segments(), 1.0) {
  init_routes();
}

void PtdrRerouteOperator::init_routes() {
  routes_.clear();
  routes_.reserve(pairs_.size());
  for (const OdPair& pair : pairs_) {
    routes_.push_back(
        network_->shortest_path(pair.from, pair.to, config_.initial_hour));
  }
}

bool PtdrRerouteOperator::offer(const Event& event) {
  const bool folded = inner_.offer(event);
  if (folded) {
    ++stats_.events_in;
  } else {
    ++stats_.late_dropped;
  }
  return folded;
}

double PtdrRerouteOperator::path_time_s(const std::vector<std::size_t>& path,
                                        int hour) const {
  double total = 0.0;
  for (const std::size_t seg : path) {
    // expected_time_s under the profile, stretched by the observed
    // overlay (factor < 1 = slower than usual = longer time).
    total += network_->expected_time_s(seg, hour) / overlay_[seg];
  }
  return total;
}

void PtdrRerouteOperator::advance_watermark(std::uint64_t watermark_us,
                                            std::vector<WindowOutput>* out) {
  scratch_.clear();
  inner_.advance_watermark(watermark_us, &scratch_);
  stats_.late_dropped = inner_.stats().late_dropped;
  if (scratch_.empty()) return;

  // Fold the closed windows' mean speeds into the overlay, one trigger
  // per distinct window end (inner outputs arrive end-ascending).
  std::size_t i = 0;
  while (i < scratch_.size()) {
    const std::uint64_t end = scratch_[i].window_end_us;
    const std::uint64_t start = scratch_[i].window_start_us;
    for (; i < scratch_.size() && scratch_[i].window_end_us == end; ++i) {
      const std::size_t seg = static_cast<std::size_t>(scratch_[i].key);
      if (seg >= overlay_.size() || scratch_[i].events == 0) continue;
      const double freeflow = network_->segment(seg).freeflow_kmh;
      double factor = scratch_[i].value / freeflow;
      factor = std::clamp(factor, config_.min_speed_factor,
                          config_.max_speed_factor);
      overlay_[seg] = factor;
    }

    // Re-evaluate every monitored pair under the updated overlay; the
    // hour of day comes from the window end on the stream timeline.
    const int hour =
        static_cast<int>((end / 3'600'000'000ULL) % 24);
    for (std::size_t p = 0; p < pairs_.size(); ++p) {
      double best_time = path_time_s(routes_[p], hour);
      const std::vector<std::size_t>* best = nullptr;
      const auto alternatives = network_->alternative_paths(
          pairs_[p].from, pairs_[p].to, hour, config_.alternatives);
      for (const auto& alt : alternatives) {
        if (alt.empty() || alt == routes_[p]) continue;
        const double t = path_time_s(alt, hour);
        if (t < best_time * (1.0 - config_.reroute_threshold) &&
            (best == nullptr || t < path_time_s(*best, hour))) {
          best_time = t;
          best = &alt;
        }
      }
      if (best != nullptr) {
        routes_[p] = *best;
        ++rerouted_;
      }
      WindowOutput output;
      output.topic = topic();
      output.op = name();
      output.key = p;
      output.window_start_us = start;
      output.window_end_us = end;
      output.events = routes_[p].size();
      output.value = best_time;
      out->push_back(std::move(output));
      ++stats_.windows_closed;
    }
  }
}

void PtdrRerouteOperator::reset() {
  inner_.reset();
  std::fill(overlay_.begin(), overlay_.end(), 1.0);
  rerouted_ = 0;
  stats_ = OperatorStats{};
  init_routes();
}

}  // namespace everest::stream
