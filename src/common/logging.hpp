// Minimal leveled logger. Thread-safe sink and level (worker threads in
// src/serve log concurrently), printf-free (streams), and a global level so
// benches can silence library chatter.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <sstream>
#include <string>
#include <string_view>

namespace everest {

enum class LogLevel { kTrace = 0, kDebug, kInfo, kWarn, kError, kOff };

/// Process-wide logging controls.
class Logger {
 public:
  static Logger& instance();

  void set_level(LogLevel level) {
    level_.store(level, std::memory_order_relaxed);
  }
  [[nodiscard]] LogLevel level() const {
    return level_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] bool enabled(LogLevel lvl) const { return lvl >= level(); }

  /// Writes one formatted line, prefixed with a monotonic microsecond
  /// timestamp (since process start) and a small stable per-thread id
  /// (thread-safe: the line is fully formatted first, then handed to the
  /// sink in one mutex-guarded call, so lines from different threads never
  /// interleave).
  void write(LogLevel level, std::string_view component, std::string_view msg);

  /// Redirects whole lines (including the trailing newline) to `sink`
  /// instead of stderr; pass nullptr to restore stderr. Test hook — the
  /// sink is invoked under the same mutex as stderr writes.
  void set_sink(std::function<void(std::string_view)> sink);

  /// Microseconds since process start on the monotonic clock.
  [[nodiscard]] static std::int64_t monotonic_us();

 private:
  Logger() = default;
  std::atomic<LogLevel> level_{LogLevel::kWarn};
  std::mutex mu_;
  std::function<void(std::string_view)> sink_;
};

namespace detail {
class LogLine {
 public:
  LogLine(LogLevel level, std::string_view component)
      : level_(level), component_(component) {}
  ~LogLine() {
    if (Logger::instance().enabled(level_)) {
      Logger::instance().write(level_, component_, stream_.str());
    }
  }
  template <typename T>
  LogLine& operator<<(const T& v) {
    if (Logger::instance().enabled(level_)) stream_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::string_view component_;
  std::ostringstream stream_;
};
}  // namespace detail

}  // namespace everest

#define EVEREST_LOG(level, component) \
  ::everest::detail::LogLine(::everest::LogLevel::level, component)
