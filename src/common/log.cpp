#include "common/log.hpp"

#include <cstdio>
#include <mutex>

namespace attain {

namespace {

// Per-thread virtual clock: each sweep worker thread owns one Scheduler at
// a time, and that scheduler's constructor installs the clock for exactly
// that thread.
thread_local std::function<SimTime()> t_clock;

std::mutex& emit_mutex() {
  static std::mutex m;
  return m;
}

}  // namespace

std::string to_string(LogLevel level) {
  switch (level) {
    case LogLevel::Trace: return "TRACE";
    case LogLevel::Debug: return "DEBUG";
    case LogLevel::Info: return "INFO";
    case LogLevel::Warn: return "WARN";
    case LogLevel::Error: return "ERROR";
    case LogLevel::Off: return "OFF";
  }
  return "?";
}

std::string to_string(EntityKind kind) {
  switch (kind) {
    case EntityKind::Controller: return "controller";
    case EntityKind::Switch: return "switch";
    case EntityKind::Host: return "host";
  }
  return "?";
}

Logger& Logger::instance() {
  static Logger logger;
  return logger;
}

Logger::Logger() {
  sink_ = [](const LogRecord& rec) {
    std::fprintf(stderr, "[%s] t=%.6fs %s: %s\n", to_string(rec.level).c_str(),
                 rec.sim_time >= 0 ? to_seconds(rec.sim_time) : -1.0, rec.component.c_str(),
                 rec.message.c_str());
  };
}

Logger::Sink Logger::set_sink(Sink sink) {
  const std::lock_guard<std::mutex> lock(emit_mutex());
  std::swap(sink_, sink);
  return sink;
}

void Logger::set_clock(std::function<SimTime()> clock) { t_clock = std::move(clock); }

void Logger::emit(LogLevel level, std::string component, std::string message) {
  if (level < level_) return;
  LogRecord rec;
  rec.level = level;
  rec.sim_time = t_clock ? t_clock() : -1;
  rec.component = std::move(component);
  rec.message = std::move(message);
  const std::lock_guard<std::mutex> lock(emit_mutex());
  if (sink_) sink_(rec);
}

}  // namespace attain
