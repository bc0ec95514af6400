// Leveled logging to stderr.
//
// Verbosity defaults to kWarn so library code stays quiet under tests and
// benches; examples raise it to kInfo to narrate what they do.
#pragma once

#include <atomic>
#include <sstream>
#include <string>

namespace drtp {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

namespace detail {
/// Process-wide verbosity threshold. Atomic because sweep worker threads
/// log concurrently with a main thread that may adjust verbosity; relaxed
/// ordering suffices — the level is an independent filter, not a
/// synchronisation point.
inline std::atomic<LogLevel> g_log_level{LogLevel::kWarn};
}  // namespace detail

/// Process-wide verbosity threshold; messages below it are dropped.
inline void SetLogLevel(LogLevel level) {
  detail::g_log_level.store(level, std::memory_order_relaxed);
}
inline LogLevel GetLogLevel() {
  return detail::g_log_level.load(std::memory_order_relaxed);
}

namespace detail {

/// Small dense per-thread tag ("t0", "t1", ...) in first-log order — sweep
/// workers interleave on stderr, and correlating a log line with a
/// drtp.trace/1 event needs to know which.
int ThisThreadLogTag();

/// Renders the bracketed line prefix: level, UTC wall-clock timestamp
/// (millisecond ISO-8601, matching drtp.trace/1's time base), thread tag,
/// and file:line. Exposed so tests can pin the format without scraping
/// stderr.
std::string FormatLogPrefix(LogLevel level, const char* file, int line);

/// Stream collector that emits on destruction.
class LogLine {
 public:
  LogLine(LogLevel level, const char* file, int line);
  ~LogLine();
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;

  template <typename T>
  LogLine& operator<<(const T& v) {
    if (enabled_) os_ << v;
    return *this;
  }

 private:
  /// Captured once at construction; the threshold is re-read nowhere else,
  /// so a concurrent SetLogLevel cannot split one message across levels.
  bool enabled_;
  LogLevel level_;
  std::ostringstream os_;
};

}  // namespace detail
}  // namespace drtp

#define DRTP_LOG_DEBUG \
  ::drtp::detail::LogLine(::drtp::LogLevel::kDebug, __FILE__, __LINE__)
#define DRTP_LOG_INFO \
  ::drtp::detail::LogLine(::drtp::LogLevel::kInfo, __FILE__, __LINE__)
#define DRTP_LOG_WARN \
  ::drtp::detail::LogLine(::drtp::LogLevel::kWarn, __FILE__, __LINE__)
#define DRTP_LOG_ERROR \
  ::drtp::detail::LogLine(::drtp::LogLevel::kError, __FILE__, __LINE__)
