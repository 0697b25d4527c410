// Windowed incremental operators: tumbling/sliding event-time windows
// with watermark-driven triggering. An operator folds events into
// per-(window, key) accumulators as they arrive — O(state), not
// O(events) — and closes every window the watermark passed, emitting
// outputs in a deterministic order (ascending window end, then key).
//
// The watermark discipline is the standard bounded-out-of-orderness one:
// the engine advances an operator's watermark to
// `topic frontier − allowed_lateness`, so an event may trail the frontier
// by up to allowed_lateness and still be folded; anything later is
// dropped and counted (`late_dropped`), never silently reordered.
//
// Determinism contract (what the TEST_P suites and the crash-replay
// byte-identity checks rely on): given the same per-key event sequence,
// offer/advance produce byte-identical outputs — window assignment is
// integer arithmetic, open windows are kept in end order, a closing
// window emits its cells sorted by key, and accumulator folding is
// sequential.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "stream/event.hpp"

namespace everest::stream {

enum class WindowKind : std::uint8_t {
  kTumbling = 0,  ///< back-to-back windows of `size_us`
  kSliding,       ///< overlapping windows advancing by `slide_us`
};

struct WindowSpec {
  WindowKind kind = WindowKind::kTumbling;
  std::uint64_t size_us = 1'000'000;
  /// Sliding only; 0 (or kTumbling) means slide == size.
  std::uint64_t slide_us = 0;
  /// Bounded out-of-orderness: events may trail the topic frontier by
  /// this much and still fold; the watermark lags the frontier by it.
  std::uint64_t allowed_lateness_us = 0;

  [[nodiscard]] std::uint64_t effective_slide_us() const {
    return (kind == WindowKind::kTumbling || slide_us == 0) ? size_us
                                                            : slide_us;
  }
  /// Start offsets of every window containing event time `t`, descending
  /// (the window ending soonest comes last). Tumbling yields one.
  void windows_of(std::uint64_t t, std::vector<std::uint64_t>* starts) const;
};

/// Incremental per-(window, key) state. `add` must be O(1)-ish and
/// deterministic in the event sequence; `finish` produces the window's
/// output value and is called exactly once, when the window closes.
class Accumulator {
 public:
  virtual ~Accumulator() = default;
  virtual void add(const Event& event) = 0;
  virtual double finish(std::uint64_t window_start_us,
                        std::uint64_t window_end_us) = 0;
};

/// Makes a fresh accumulator for one key (called once per open cell).
using AccumulatorFactory =
    std::function<std::unique_ptr<Accumulator>(std::uint64_t key)>;

struct OperatorStats {
  std::uint64_t events_in = 0;      ///< events folded into >=1 window
  std::uint64_t late_dropped = 0;   ///< events behind every window
  std::uint64_t windows_closed = 0; ///< outputs emitted
};

/// Interface the stream engine drives. Implementations are single-owner:
/// the engine serializes offer/advance under its pump.
class Operator {
 public:
  Operator(std::string name, std::string topic)
      : name_(std::move(name)), topic_(std::move(topic)) {}
  virtual ~Operator() = default;
  Operator(const Operator&) = delete;
  Operator& operator=(const Operator&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const std::string& topic() const { return topic_; }

  /// Folds one event; false = dropped late (every window it belongs to
  /// already closed).
  virtual bool offer(const Event& event) = 0;

  /// Monotonically advances the watermark; closes every window with
  /// end <= watermark and APPENDS their outputs to `out` in (window end,
  /// key) order. A non-advancing watermark is a no-op.
  virtual void advance_watermark(std::uint64_t watermark_us,
                                 std::vector<WindowOutput>* out) = 0;

  [[nodiscard]] virtual std::uint64_t watermark_us() const = 0;
  /// Watermark distance behind the topic frontier this operator needs.
  [[nodiscard]] virtual std::uint64_t allowed_lateness_us() const = 0;
  /// Longest event-time span one window covers — the horizon a failover
  /// replay must rewind past the acked watermark to rebuild open windows.
  [[nodiscard]] virtual std::uint64_t max_window_span_us() const = 0;

  /// Drops all window state and rewinds the watermark (a failover
  /// re-attach replays from the WAL into a reset operator).
  virtual void reset() = 0;

  [[nodiscard]] virtual const OperatorStats& stats() const = 0;

 private:
  std::string name_;
  std::string topic_;
};

/// The generic windowed operator: per-(window, key) accumulators from a
/// factory, watermark-driven closing, deterministic output order.
///
/// Cell store: the open windows sit in a vector in end order, and each
/// holds a flat vector of cells indexed by a dense per-operator key slot.
/// An event costs one key→slot hash lookup, then one indexed access per
/// covering window. A key keeps its slot while any open window holds a
/// cell for it; the slot is recycled after that, so memory follows the
/// live state. Closed windows hand their cell vectors to the next windows
/// to open, so a steady stream allocates only accumulators.
class WindowedOperator : public Operator {
 public:
  WindowedOperator(std::string name, std::string topic, WindowSpec spec,
                   AccumulatorFactory factory);

  bool offer(const Event& event) override;
  void advance_watermark(std::uint64_t watermark_us,
                         std::vector<WindowOutput>* out) override;
  [[nodiscard]] std::uint64_t watermark_us() const override {
    return watermark_;
  }
  [[nodiscard]] std::uint64_t allowed_lateness_us() const override {
    return spec_.allowed_lateness_us;
  }
  [[nodiscard]] std::uint64_t max_window_span_us() const override {
    return spec_.size_us;
  }
  void reset() override;
  [[nodiscard]] const OperatorStats& stats() const override { return stats_; }

  [[nodiscard]] const WindowSpec& spec() const { return spec_; }
  /// Open (window, key) cells currently held.
  [[nodiscard]] std::size_t open_cells() const { return open_cells_; }

 private:
  /// One (window, key) accumulator; `acc` is null while the window holds
  /// no cell for the slot's key.
  struct Cell {
    std::uint64_t events = 0;
    std::unique_ptr<Accumulator> acc;
  };
  struct Window {
    std::uint64_t start_us = 0;
    std::uint64_t end_us = 0;
    std::vector<Cell> cells;  ///< index = key slot
  };

  /// The key's slot, assigning a free one if the key holds none.
  std::uint32_t slot_of(std::uint64_t key);
  /// Index of the open window [start_us, end_us), opened at `pos` (its
  /// place in end order) when `windows_[pos - 1]` is not it already.
  std::size_t window_at(std::size_t pos, std::uint64_t start_us,
                        std::uint64_t end_us);
  /// Emits `window`'s cells in key order, frees their slots, and keeps
  /// its cell vector for reuse.
  void close_window(Window& window, std::vector<WindowOutput>* out);

  WindowSpec spec_;
  AccumulatorFactory factory_;
  /// Ascending window end: advance_watermark closes a prefix.
  std::vector<Window> windows_;
  /// Emptied cell vectors of closed windows, reused by the next to open.
  std::vector<std::vector<Cell>> spare_cells_;
  std::unordered_map<std::uint64_t, std::uint32_t> slot_of_key_;
  std::vector<std::uint64_t> slot_key_;      ///< index = slot
  std::vector<std::uint32_t> slot_windows_;  ///< open windows with a cell
  std::vector<std::uint32_t> free_slots_;
  std::size_t open_cells_ = 0;
  std::uint64_t watermark_ = 0;
  OperatorStats stats_;
  std::vector<std::uint64_t> scratch_starts_;
  /// (key, slot) of a closing window's cells, sorted into emission order.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> scratch_closing_;
};

}  // namespace everest::stream
