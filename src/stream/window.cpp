#include "stream/window.hpp"

#include <algorithm>

namespace everest::stream {

void WindowSpec::windows_of(std::uint64_t t,
                            std::vector<std::uint64_t>* starts) const {
  starts->clear();
  const std::uint64_t slide = effective_slide_us();
  if (slide == 0 || size_us == 0) return;
  // Latest window starting at or before t, then every earlier start
  // whose window still covers t (start + size > t).
  std::uint64_t start = (t / slide) * slide;
  for (;;) {
    starts->push_back(start);
    if (start < slide) break;
    const std::uint64_t prev = start - slide;
    if (prev + size_us <= t) break;
    start = prev;
  }
}

WindowedOperator::WindowedOperator(std::string name, std::string topic,
                                   WindowSpec spec, AccumulatorFactory factory)
    : Operator(std::move(name), std::move(topic)),
      spec_(spec),
      factory_(std::move(factory)) {}

bool WindowedOperator::offer(const Event& event) {
  spec_.windows_of(event.event_time_us, &scratch_starts_);
  // Starts are descending, so the windows that already closed
  // (end <= watermark) are a suffix.
  while (!scratch_starts_.empty() &&
         scratch_starts_.back() + spec_.size_us <= watermark_) {
    scratch_starts_.pop_back();
  }
  if (scratch_starts_.empty()) {
    ++stats_.late_dropped;
    return false;
  }
  const std::uint32_t slot = slot_of(event.key);
  // The covering windows have consecutive ends, descending, and sit
  // near the back: find the place of the latest once, then step down.
  const std::uint64_t last_end = scratch_starts_.front() + spec_.size_us;
  std::size_t pos = windows_.size();
  while (pos > 0 && windows_[pos - 1].end_us > last_end) --pos;
  for (const std::uint64_t start : scratch_starts_) {
    pos = window_at(pos, start, start + spec_.size_us);
    Window& window = windows_[pos];
    if (window.cells.size() <= slot) window.cells.resize(slot + 1);
    Cell& cell = window.cells[slot];
    if (cell.acc == nullptr) {
      cell.acc = factory_(event.key);
      ++slot_windows_[slot];
      ++open_cells_;
    }
    cell.acc->add(event);
    ++cell.events;
  }
  ++stats_.events_in;
  return true;
}

std::uint32_t WindowedOperator::slot_of(std::uint64_t key) {
  const auto [it, inserted] = slot_of_key_.try_emplace(key, 0);
  if (inserted) {
    if (free_slots_.empty()) {
      it->second = static_cast<std::uint32_t>(slot_key_.size());
      slot_key_.push_back(key);
      slot_windows_.push_back(0);
    } else {
      it->second = free_slots_.back();
      free_slots_.pop_back();
      slot_key_[it->second] = key;
    }
  }
  return it->second;
}

std::size_t WindowedOperator::window_at(std::size_t pos,
                                        std::uint64_t start_us,
                                        std::uint64_t end_us) {
  if (pos > 0 && windows_[pos - 1].end_us == end_us) return pos - 1;
  Window window;
  window.start_us = start_us;
  window.end_us = end_us;
  if (!spare_cells_.empty()) {
    window.cells = std::move(spare_cells_.back());
    spare_cells_.pop_back();
  }
  windows_.insert(windows_.begin() + static_cast<std::ptrdiff_t>(pos),
                  std::move(window));
  return pos;
}

void WindowedOperator::advance_watermark(std::uint64_t watermark_us,
                                         std::vector<WindowOutput>* out) {
  if (watermark_us <= watermark_) return;  // watermarks only move forward
  watermark_ = watermark_us;
  std::size_t closed = 0;
  while (closed < windows_.size() && windows_[closed].end_us <= watermark_) {
    close_window(windows_[closed], out);
    ++closed;
  }
  windows_.erase(windows_.begin(),
                 windows_.begin() + static_cast<std::ptrdiff_t>(closed));
}

void WindowedOperator::close_window(Window& window,
                                    std::vector<WindowOutput>* out) {
  scratch_closing_.clear();
  for (std::size_t slot = 0; slot < window.cells.size(); ++slot) {
    if (window.cells[slot].acc != nullptr) {
      scratch_closing_.emplace_back(slot_key_[slot],
                                    static_cast<std::uint32_t>(slot));
    }
  }
  std::sort(scratch_closing_.begin(), scratch_closing_.end());
  for (const auto& [key, slot] : scratch_closing_) {
    Cell& cell = window.cells[slot];
    WindowOutput output;
    output.topic = topic();
    output.op = name();
    output.key = key;
    output.window_start_us = window.start_us;
    output.window_end_us = window.end_us;
    output.events = cell.events;
    output.value = cell.acc->finish(window.start_us, window.end_us);
    out->push_back(std::move(output));
    ++stats_.windows_closed;
    if (--slot_windows_[slot] == 0) {
      slot_of_key_.erase(key);
      free_slots_.push_back(slot);
    }
  }
  open_cells_ -= scratch_closing_.size();
  window.cells.clear();  // destroys the accumulators
  spare_cells_.push_back(std::move(window.cells));
}

void WindowedOperator::reset() {
  windows_.clear();
  spare_cells_.clear();
  slot_of_key_.clear();
  slot_key_.clear();
  slot_windows_.clear();
  free_slots_.clear();
  open_cells_ = 0;
  watermark_ = 0;
  stats_ = OperatorStats{};
}

}  // namespace everest::stream
