// Wall-clock watchdog for tests that fork: a hang ends the test process
// with a message instead of blocking the run.
#pragma once

#include <unistd.h>

#include <csignal>

namespace attain::test_support {

/// Ends the test process with a message once the scope has run for
/// `seconds` of wall time, so a hang fails instead of blocking the run.
/// SIGALRM rather than a thread: a watchdog thread would itself be running
/// during the forks under test. Forked children do not inherit the alarm.
class Watchdog {
 public:
  explicit Watchdog(unsigned seconds) : previous_(std::signal(SIGALRM, &expire)) {
    alarm(seconds);
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;
  ~Watchdog() {
    alarm(0);
    std::signal(SIGALRM, previous_);
  }

 private:
  static void expire(int) {
    static const char kMessage[] = "watchdog: wall-clock budget exceeded (hung?)\n";
    [[maybe_unused]] const ssize_t n = write(STDERR_FILENO, kMessage, sizeof kMessage - 1);
    _exit(1);
  }

  void (*const previous_)(int);
};

}  // namespace attain::test_support
