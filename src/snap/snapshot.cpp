#include "snap/snapshot.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <numeric>

#include "snap/wire.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define ATTAIN_SNAP_POSIX 1
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#endif

#if defined(__SANITIZE_THREAD__)
#define ATTAIN_SNAP_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define ATTAIN_SNAP_TSAN 1
#endif
#endif

namespace attain::snap {

bool fork_supported() {
#if !defined(ATTAIN_SNAP_POSIX)
  return false;
#elif defined(ATTAIN_SNAP_TSAN)
  return false;
#else
  return true;
#endif
}

#if defined(ATTAIN_SNAP_POSIX)

namespace {

void wait_pid(pid_t pid) {
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
}

/// Tail process body: run the caller's tail body, ship its blob, and _exit
/// without running atexit handlers or flushing inherited stdio (the parent
/// owns the process-global state; under ASan, _exit also skips the leak
/// check, which is intentional for these short-lived forks).
[[noreturn]] void run_tail(const TailBody& tail, scenario::WarmupPhase& phase, std::size_t k,
                           int fd) {
  try {
    // A failed write means the reader is gone; the parent sees a
    // truncated blob and falls back to a cold run.
    wire::write_exact(fd, tail(phase, k));
  } catch (...) {
    // Nothing shipped: the parent sees an empty blob and runs the cell cold.
  }
  ::close(fd);
  ::_exit(0);
}

/// Group child body: builds the shared warm-up once, advances monotonically
/// through the cells' fork times (`order` lists the cells by fork time),
/// and forks one tail per cell at its fork point. Copy-on-write makes each
/// fork free until the tail's trajectory diverges. The pipes' read ends
/// are already closed in this process.
[[noreturn]] void run_group_child(const scenario::RunSpec& rep,
                                  const std::vector<scenario::RunSpec>& cells,
                                  const std::vector<std::size_t>& order,
                                  const std::vector<std::array<int, 2>>& pipes, int max_live,
                                  const TailBody& tail) {
  std::vector<pid_t> live;
  try {
    const scenario::WarmupPhasePtr phase = scenario::warm_up(rep);
    for (std::size_t i = 0; i < order.size(); ++i) {
      const std::size_t k = order[i];
      phase->advance_to(scenario::fork_time(cells[k]));
      if (static_cast<int>(live.size()) >= max_live) {
        wait_pid(live.front());
        live.erase(live.begin());
      }
      std::fflush(nullptr);
      const pid_t pid = ::fork();
      if (pid == 0) {
        // Tail: drop the later cells' pipes (ours is the only write end
        // that may stay open, or their readers would never see EOF).
        for (std::size_t j = i + 1; j < order.size(); ++j) ::close(pipes[order[j]][1]);
        run_tail(tail, *phase, k, pipes[k][1]);
      }
      ::close(pipes[k][1]);
      if (pid > 0) live.push_back(pid);
      // On fork failure the cell's pipe EOFs with no blob: the parent
      // falls back to a cold run.
    }
  } catch (...) {
    // Warm-up itself failed; every unforked cell EOFs and runs cold.
  }
  for (const pid_t pid : live) wait_pid(pid);
  ::_exit(0);
}

}  // namespace

std::vector<Bytes> run_group(const scenario::RunSpec& rep,
                             const std::vector<scenario::RunSpec>& cells, int max_live_tails,
                             const TailBody& tail) {
  std::vector<Bytes> blobs(cells.size());
  if (!fork_supported() || cells.empty()) return blobs;

  // One pipe per cell, created up front so a partial failure can unwind.
  std::vector<std::array<int, 2>> pipes(cells.size(), {-1, -1});
  for (auto& p : pipes) {
    if (::pipe(p.data()) != 0) {
      for (const auto& q : pipes) {
        if (q[0] >= 0) ::close(q[0]);
        if (q[1] >= 0) ::close(q[1]);
      }
      return blobs;
    }
  }

  // Fork-time order (stable, so equal fork times keep grid order): the
  // child advances once through the shared trajectory and peels tails off
  // as their fork points are reached.
  std::vector<std::size_t> order(cells.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return scenario::fork_time(cells[a]) < scenario::fork_time(cells[b]);
  });

  std::fflush(nullptr);
  const pid_t child = ::fork();
  if (child == 0) {
    for (const auto& p : pipes) ::close(p[0]);
    run_group_child(rep, cells, order, pipes, std::max(1, max_live_tails), tail);
  }
  for (const auto& p : pipes) ::close(p[1]);
  if (child < 0) {
    for (const auto& p : pipes) ::close(p[0]);
    return blobs;
  }
  // Drain in fork order, the order the child forks and reaps its tails: a
  // blob larger than the pipe buffer blocks its tail in write() until it
  // is read, and the child, at its live-tail bound, waits for the oldest
  // tail before forking the next. Reading any other pipe first deadlocks.
  for (const std::size_t k : order) {
    blobs[k] = wire::read_stream(pipes[k][0]);
    ::close(pipes[k][0]);
  }
  wait_pid(child);
  return blobs;
}

#else  // !ATTAIN_SNAP_POSIX

std::vector<Bytes> run_group(const scenario::RunSpec&, const std::vector<scenario::RunSpec>& cells,
                             int, const TailBody&) {
  return std::vector<Bytes>(cells.size());
}

#endif

}  // namespace attain::snap
