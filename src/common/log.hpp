// Minimal structured logging with per-component severities. The runtime
// injector and monitors log through this so tests can capture and assert on
// emitted events.
#pragma once

#include <functional>
#include <sstream>
#include <string>

#include "common/types.hpp"

namespace attain {

enum class LogLevel : std::uint8_t { Trace, Debug, Info, Warn, Error, Off };

std::string to_string(LogLevel level);

/// A single log record. `sim_time` is the virtual time at emission (or -1
/// when no simulation clock is active).
struct LogRecord {
  LogLevel level{LogLevel::Info};
  SimTime sim_time{-1};
  std::string component;
  std::string message;
};

/// Process-wide log sink. Defaults to stderr above Warn; tests and the
/// experiment harness install their own sinks. The virtual clock is
/// thread-local: each sweep worker runs its own Scheduler, and records
/// emitted on that thread carry that scheduler's time. emit() serializes
/// sink invocations, so concurrent simulations never interleave a record;
/// set_sink()/set_level() are still main-thread-before-workers operations.
class Logger {
 public:
  using Sink = std::function<void(const LogRecord&)>;

  static Logger& instance();

  /// Installs `sink` and returns the one it replaces, so a caller that
  /// captures records for a while can put the previous sink back.
  Sink set_sink(Sink sink);
  void set_level(LogLevel level) { level_ = level; }
  LogLevel level() const { return level_; }

  /// Virtual clock hook for the calling thread; the simulator installs
  /// this so records carry simulation timestamps.
  void set_clock(std::function<SimTime()> clock);

  void emit(LogLevel level, std::string component, std::string message);

 private:
  Logger();

  Sink sink_;
  LogLevel level_{LogLevel::Warn};
};

/// Convenience: stream-style logging.
///   ATTAIN_LOG(Info, "injector") << "dropped " << n << " messages";
class LogStream {
 public:
  LogStream(LogLevel level, std::string component)
      : level_(level), component_(std::move(component)) {}
  ~LogStream() { Logger::instance().emit(level_, std::move(component_), stream_.str()); }

  template <typename T>
  LogStream& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::string component_;
  std::ostringstream stream_;
};

#define ATTAIN_LOG(severity, component)                                       \
  if (::attain::LogLevel::severity < ::attain::Logger::instance().level()) {} \
  else ::attain::LogStream(::attain::LogLevel::severity, (component))

}  // namespace attain
