#include "common/logging.hpp"

#include <chrono>
#include <iostream>
#include <utility>

namespace everest {

Logger& Logger::instance() {
  static Logger logger;
  return logger;
}

namespace {
std::string_view level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace: return "TRACE";
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}

/// Small dense id of the calling thread (0, 1, 2, ... in first-log order).
std::uint32_t thread_id() {
  static std::atomic<std::uint32_t> next{0};
  thread_local std::uint32_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}
}  // namespace

std::int64_t Logger::monotonic_us() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                               epoch)
      .count();
}

void Logger::set_sink(std::function<void(std::string_view)> sink) {
  std::lock_guard<std::mutex> lock(mu_);
  sink_ = std::move(sink);
}

void Logger::write(LogLevel level, std::string_view component,
                   std::string_view msg) {
  // Format outside the lock; only the final single-call emit is serialized.
  std::ostringstream line;
  line << "[" << monotonic_us() << "us][t" << thread_id() << "]["
       << level_name(level) << "][" << component << "] " << msg << "\n";
  const std::string text = line.str();
  std::lock_guard<std::mutex> lock(mu_);
  if (sink_) {
    sink_(text);
  } else {
    std::cerr << text;
  }
}

}  // namespace everest
