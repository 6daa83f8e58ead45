// Minimal leveled logger used by campaign drivers and backends.
//
// Single-process tooling does not need a logging framework; this keeps a
// global level and writes to stderr.  It is safe to call from any thread:
// the level is an atomic, and log_line emits each line with a single
// fprintf, which stdio locks, so concurrent lines never interleave
// (their order across threads is unspecified).
#pragma once

#include <sstream>
#include <string>

namespace sce::util {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Set the global log threshold; messages below it are discarded.
void set_log_level(LogLevel level);
LogLevel log_level();

/// Emit one log line at `level` (no-op if below the threshold).
void log_line(LogLevel level, const std::string& message);

namespace detail {
template <typename... Args>
std::string concat(const Args&... args) {
  std::ostringstream os;
  (os << ... << args);
  return os.str();
}
}  // namespace detail

template <typename... Args>
void log_debug(const Args&... args) {
  if (log_level() <= LogLevel::kDebug)
    log_line(LogLevel::kDebug, detail::concat(args...));
}
template <typename... Args>
void log_info(const Args&... args) {
  if (log_level() <= LogLevel::kInfo)
    log_line(LogLevel::kInfo, detail::concat(args...));
}
template <typename... Args>
void log_warn(const Args&... args) {
  if (log_level() <= LogLevel::kWarn)
    log_line(LogLevel::kWarn, detail::concat(args...));
}
template <typename... Args>
void log_error(const Args&... args) {
  if (log_level() <= LogLevel::kError)
    log_line(LogLevel::kError, detail::concat(args...));
}

}  // namespace sce::util
