#include "sweep/distributed.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/alloc_hook.hpp"
#include "common/arena.hpp"
#include "common/bytes.hpp"
#include "snap/snapshot.hpp"
#include "snap/wire.hpp"
#include "sweep/journal.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define ATTAIN_DIST_POSIX 1
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#endif

namespace attain::sweep {

namespace {

using Clock = std::chrono::steady_clock;

double elapsed_seconds(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Task frames (coordinator -> worker), sealed:
//   u8 kTaskMsg | u32 item_id | u8 warm | u32 count | count x u32 cell_index
// Closing the task pipe is the shutdown signal: a worker that reads EOF at
// a frame boundary exits cleanly.
constexpr std::uint8_t kTaskMsg = 1;

// Result frames (worker -> coordinator), sealed:
//   u8 kCellMsg | u32 item_id | cell-outcome record (write_outcome)
//     | u64 allocations | u64 slab_reserved
//   u8 kItemMsg | u32 item_id | u32 warm_cells
// Cells stream as they finish (one frame each); the item frame marks the
// whole work item retired, which is what opens the dispatch window again.
constexpr std::uint8_t kCellMsg = 1;
constexpr std::uint8_t kItemMsg = 2;

#if defined(ATTAIN_DIST_POSIX)

/// Fault-injection hooks for the failure-path tests (see
/// tests/test_sweep_distributed.cpp). Each env var names a sentinel file;
/// the fault fires in whichever worker claims the sentinel first and never
/// again — so a respawned worker completes the re-run instead of dying in
/// a loop.
struct FaultHooks {
  const char* corrupt_sentinel{nullptr};   // ATTAIN_TEST_CORRUPT_RESULT_FRAME
  const char* truncate_sentinel{nullptr};  // ATTAIN_TEST_TRUNCATE_RESULT_FRAME

  static FaultHooks from_env() {
    FaultHooks hooks;
    hooks.corrupt_sentinel = std::getenv("ATTAIN_TEST_CORRUPT_RESULT_FRAME");
    hooks.truncate_sentinel = std::getenv("ATTAIN_TEST_TRUNCATE_RESULT_FRAME");
    return hooks;
  }
};

/// Atomically claims a sentinel file: true exactly once per path across
/// every process that races for it.
bool claim_sentinel(const char* path) {
  if (path == nullptr || *path == '\0') return false;
  const int fd = ::open(path, O_CREAT | O_EXCL | O_WRONLY, 0644);
  if (fd < 0) return false;
  ::close(fd);
  return true;
}

/// Ships one finished cell as a sealed frame. A result that cannot cross
/// the process boundary (custom result types have no binary codec)
/// downgrades the cell to Failed with an explanatory error rather than
/// corrupting the stream. Returns false when the coordinator is gone.
bool ship_cell(int fd, std::uint32_t item_id, std::uint32_t cell_index, const CellOutcome& cell,
               const FaultHooks& hooks) {
  auto frame = [&](const CellOutcome& outcome) {
    ByteWriter w;
    w.u8(kCellMsg);
    w.u32(item_id);
    write_outcome(w, cell_index, outcome);
    w.u64(cell.worker_allocations);
    w.u64(cell.worker_slab_reserved);
    return w;
  };
  ByteWriter w;
  try {
    w = frame(cell);
  } catch (const std::exception& e) {
    CellOutcome failed;
    failed.status = CellStatus::Failed;
    failed.attempts = cell.attempts;
    failed.wall_seconds = cell.wall_seconds;
    failed.error =
        std::string("distributed: result type cannot cross the process boundary: ") + e.what();
    w = frame(failed);
  }
  Bytes payload = snap::wire::seal(std::move(w));

  if (claim_sentinel(hooks.corrupt_sentinel)) {
    payload[payload.size() / 2] ^= 0xFFu;  // breaks the seal, not the framing
  }
  if (claim_sentinel(hooks.truncate_sentinel)) {
    // Announce the full length, deliver half, die: the coordinator's
    // read_frame sees EOF mid-payload (FrameStatus::Error).
    const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
    const std::uint8_t header[4] = {
        static_cast<std::uint8_t>(len >> 24), static_cast<std::uint8_t>(len >> 16),
        static_cast<std::uint8_t>(len >> 8), static_cast<std::uint8_t>(len)};
    snap::wire::write_exact(fd, header);
    snap::wire::write_exact(fd, {payload.data(), payload.size() / 2});
    ::_exit(86);
  }

  return snap::wire::write_frame(fd, payload);
}

/// Worker process main loop: read task frames, run the cells through the
/// shared cell-execution core (sweep.hpp), stream each outcome back, mark
/// a slab run-boundary per item. Never returns.
[[noreturn]] void worker_main(const std::vector<scenario::RunSpec>& grid,
                              const CellExecOptions& exec, int task_fd, int result_fd) {
  const FaultHooks hooks = FaultHooks::from_env();
  for (;;) {
    Bytes frame;
    const snap::wire::FrameStatus st = snap::wire::read_frame(task_fd, frame);
    if (st == snap::wire::FrameStatus::Eof) break;  // coordinator is done with us
    if (st != snap::wire::FrameStatus::Ok) ::_exit(2);
    std::span<const std::uint8_t> body;
    if (!snap::wire::unseal(frame, body)) ::_exit(2);

    std::uint32_t item_id = 0;
    bool warm_item = false;
    std::vector<std::size_t> indices;
    try {
      ByteReader r(body);
      if (r.u8() != kTaskMsg) ::_exit(2);
      item_id = r.u32();
      warm_item = r.u8() != 0;
      const std::uint32_t n = r.u32();
      indices.reserve(n);
      for (std::uint32_t k = 0; k < n; ++k) {
        const std::uint32_t idx = r.u32();
        if (idx >= grid.size()) ::_exit(2);
        indices.push_back(idx);
      }
    } catch (const std::exception&) {
      ::_exit(2);
    }

    std::size_t warm_results = 0;
    bool ship_ok = true;
    if (warm_item && indices.size() >= 2) {
      // The worker runs the whole signature group from its own COW
      // warm-up fork — warm-start multiplies with process parallelism.
      std::vector<scenario::RunSpec> cells;
      std::vector<CellOutcome> outcomes(indices.size());
      std::vector<CellOutcome*> ptrs;
      cells.reserve(indices.size());
      ptrs.reserve(indices.size());
      for (std::size_t k = 0; k < indices.size(); ++k) {
        cells.push_back(grid[indices[k]]);
        outcomes[k].spec = grid[indices[k]];
        ptrs.push_back(&outcomes[k]);
      }
      warm_results = run_warm_group(cells, ptrs, exec, [&](CellOutcome& cell) {
        const std::size_t pos = static_cast<std::size_t>(&cell - outcomes.data());
        cell.worker_slab_reserved = mem::thread_slab().arena_stats().bytes_reserved;
        if (ship_ok) {
          ship_ok = ship_cell(result_fd, item_id, static_cast<std::uint32_t>(indices[pos]), cell,
                              hooks);
        }
      });
    } else {
      for (const std::size_t idx : indices) {
        CellOutcome cell;
        cell.spec = grid[idx];
        const memhook::Window window = memhook::Window::open();
        run_cell_cold(cell, 1, exec);
        cell.worker_allocations = window.allocations();
        cell.worker_slab_reserved = mem::thread_slab().arena_stats().bytes_reserved;
        if (ship_ok) {
          ship_ok = ship_cell(result_fd, item_id, static_cast<std::uint32_t>(idx), cell, hooks);
        }
      }
    }

    // Per-item teardown boundary: slab pages the item borrowed return to
    // the freelists, so a steady-state worker re-uses the same reserve.
    mem::run_boundary();

    if (ship_ok) {
      ByteWriter w;
      w.u8(kItemMsg);
      w.u32(item_id);
      w.u32(static_cast<std::uint32_t>(warm_results));
      ship_ok = snap::wire::write_frame(result_fd, snap::wire::seal(std::move(w)));
    }
    if (!ship_ok) ::_exit(3);  // coordinator gone; nothing left to report to
  }
  ::_exit(0);
}

#endif  // ATTAIN_DIST_POSIX

}  // namespace

bool distributed_supported() { return snap::fork_supported(); }

DistributedRunner::DistributedRunner(DistributedOptions options) : options_(std::move(options)) {}

unsigned DistributedRunner::resolved_workers() const {
  if (options_.workers > 0) return options_.workers;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

DistributedReport DistributedRunner::run(const std::vector<scenario::RunSpec>& grid) const {
  DistributedReport report;
  report.workers = resolved_workers();
  report.sweep.threads = report.workers;
  report.sweep.cells.resize(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) report.sweep.cells[i].spec = grid[i];

  const auto campaign_start = Clock::now();

  // Journal: resume (restoring completed outcomes) or create fresh. The
  // grid digest binds the file to this exact campaign.
  CampaignJournal journal;
  std::vector<bool> done(grid.size(), false);
  std::size_t outstanding = grid.size();
  std::size_t completed_count = 0;
  if (!options_.journal_path.empty()) {
    const std::uint64_t digest = scenario::grid_digest(grid);
    bool resumed = false;
    if (options_.resume) {
      if (std::FILE* probe = std::fopen(options_.journal_path.c_str(), "rb")) {
        std::fclose(probe);
        std::vector<OutcomeRecord> loaded;
        journal = CampaignJournal::resume(options_.journal_path, digest, grid.size(), loaded);
        for (OutcomeRecord& rec : loaded) {
          CellOutcome& cell = report.sweep.cells[rec.index];
          rec.outcome.spec = std::move(cell.spec);
          cell = std::move(rec.outcome);
          if (!done[rec.index]) ++report.resumed_cells;
          done[rec.index] = true;
        }
        resumed = true;
      }
    }
    if (!resumed) {
      journal = CampaignJournal::create(options_.journal_path, digest, grid.size());
    }
  }

  auto note_progress = [&](CellOutcome& cell) {
    ++completed_count;
    if (options_.on_progress) {
      Progress p;
      p.completed = completed_count;
      p.total = grid.size();
      p.cell = &cell;
      options_.on_progress(p);
    }
  };

  // Resumed cells fire progress first, in grid order (the on_progress
  // contract: exactly once per cell, completed marching 1..total).
  for (std::size_t i = 0; i < grid.size(); ++i) {
    if (done[i]) {
      --outstanding;
      note_progress(report.sweep.cells[i]);
    }
  }

  CellExecOptions exec;
  exec.max_attempts = options_.max_attempts;
  exec.cell_timeout_seconds = options_.cell_timeout_seconds;
  exec.warm_tail_processes = options_.warm_tail_processes;

  const std::vector<WorkItem> plan = plan_work_items(grid, options_.warm_start, &done);

  if (outstanding == 0) {
    report.shards = 0;
    report.sweep.wall_seconds = elapsed_seconds(campaign_start);
    return report;
  }

#if defined(ATTAIN_DIST_POSIX)
  if (distributed_supported()) {
    // Ignore SIGPIPE for the campaign (saved/restored): writing a task to
    // a just-died worker must fail with EPIPE, not kill the coordinator.
    // Workers inherit the disposition, which serves them the same way.
    struct sigaction ignore_pipe {};
    struct sigaction old_pipe {};
    ignore_pipe.sa_handler = SIG_IGN;
    ::sigaction(SIGPIPE, &ignore_pipe, &old_pipe);

    // Work items: the initial plan plus cold re-dispatch items created
    // when a worker dies. item_cells is immutable per item; item_pending
    // shrinks as that item's cells report in.
    std::vector<std::vector<std::size_t>> item_cells;
    std::vector<std::vector<std::size_t>> item_pending;
    std::vector<bool> item_warm;
    std::deque<std::uint32_t> ready;
    for (const WorkItem& it : plan) {
      ready.push_back(static_cast<std::uint32_t>(item_cells.size()));
      item_cells.push_back(it.cells);
      item_pending.push_back(it.cells);
      item_warm.push_back(it.warm);
    }
    std::vector<unsigned> cell_respawns(grid.size(), 0);
    const std::size_t window = std::max<std::size_t>(1, options_.in_flight_per_worker);

    struct WorkerProc {
      pid_t pid{-1};
      int task_fd{-1};
      int result_fd{-1};
      std::deque<std::uint32_t> in_flight;
      Clock::time_point last_frame{};
      bool alive{false};
    };
    std::vector<WorkerProc> workers;
    workers.resize(std::min<std::size_t>(report.workers, item_cells.size()));

    auto finalize_cell = [&](std::size_t idx) {
      done[idx] = true;
      --outstanding;
      CellOutcome& cell = report.sweep.cells[idx];
      if (journal.is_open() && journal.append(idx, cell)) ++report.journal_records;
      note_progress(cell);
    };

    // Processes one unsealed result-frame body. Returns false when the
    // frame is malformed — the caller treats the stream as corrupt.
    auto handle_frame = [&](WorkerProc& w, std::span<const std::uint8_t> body) -> bool {
      try {
        ByteReader r(body);
        const std::uint8_t tag = r.u8();
        if (tag == kItemMsg) {
          const std::uint32_t item_id = r.u32();
          const std::uint32_t warm = r.u32();
          if (item_id >= item_cells.size()) return false;
          if (warm > 0) {
            report.sweep.warm_groups += 1;
            report.sweep.warm_cells += warm;
          }
          std::erase(w.in_flight, item_id);
          return true;
        }
        if (tag != kCellMsg) return false;
        const std::uint32_t item_id = r.u32();
        OutcomeRecord rec = read_outcome(r);
        rec.outcome.worker_allocations = r.u64();
        rec.outcome.worker_slab_reserved = r.u64();
        const std::size_t idx = rec.index;
        if (item_id >= item_cells.size() || idx >= grid.size()) return false;
        std::erase(item_pending[item_id], idx);
        if (!done[idx]) {
          rec.outcome.spec = std::move(report.sweep.cells[idx].spec);
          report.sweep.cells[idx] = std::move(rec.outcome);
          finalize_cell(idx);
        }
        return true;
      } catch (const std::exception&) {
        return false;
      }
    };

    // Applies the intact frames still buffered in a worker's result pipe,
    // up to EOF or the first bad frame.
    auto drain_results = [&](WorkerProc& w) {
      for (;;) {
        Bytes payload;
        if (snap::wire::read_frame(w.result_fd, payload) != snap::wire::FrameStatus::Ok) return;
        std::span<const std::uint8_t> body;
        if (!snap::wire::unseal(payload, body) || !handle_frame(w, body)) return;
      }
    };

    auto reap = [&](WorkerProc& w) {
      if (w.pid > 0) {
        int wstatus = 0;
        while (::waitpid(w.pid, &wstatus, 0) < 0 && errno == EINTR) {
        }
      }
      w.pid = -1;
    };

    // Re-plans a dead worker's unreported cells: each re-runs cold as its
    // own item with the full retry budget (SweepRunner's infrastructure-
    // failure semantics), unless it has exhausted its worker-death budget.
    auto requeue_lost = [&](WorkerProc& w) {
      for (const std::uint32_t item_id : w.in_flight) {
        for (const std::size_t idx : item_pending[item_id]) {
          if (done[idx]) continue;
          if (++cell_respawns[idx] > options_.max_cell_respawns) {
            CellOutcome& cell = report.sweep.cells[idx];
            cell.status = CellStatus::Failed;
            cell.result.reset();
            cell.attempts = std::max(cell.attempts, 1u);
            cell.error = "distributed: worker process died while running this cell (" +
                         std::to_string(cell_respawns[idx]) + " worker deaths)";
            finalize_cell(idx);
          } else {
            const std::uint32_t nid = static_cast<std::uint32_t>(item_cells.size());
            item_cells.push_back({idx});
            item_pending.push_back({idx});
            item_warm.push_back(false);
            ready.push_front(nid);
          }
        }
        item_pending[item_id].clear();
      }
      w.in_flight.clear();
    };

    // Tears down a worker. With `drain`, intact frames still buffered in
    // the result pipe are applied first — cells the worker finished before
    // dying stay finished. Without it (corrupt stream) nothing after the
    // bad frame can be trusted.
    auto kill_worker = [&](WorkerProc& w, bool drain) {
      if (!w.alive) return;
      w.alive = false;
      if (w.task_fd >= 0) {
        ::close(w.task_fd);
        w.task_fd = -1;
      }
      if (w.pid > 0) ::kill(w.pid, SIGKILL);
      reap(w);  // after this the result pipe can only drain to EOF
      if (drain && w.result_fd >= 0) drain_results(w);
      if (w.result_fd >= 0) {
        ::close(w.result_fd);
        w.result_fd = -1;
      }
      requeue_lost(w);
    };

    auto spawn_worker = [&](WorkerProc& w) -> bool {
      int task_pipe[2];
      int result_pipe[2];
      if (::pipe(task_pipe) != 0) return false;
      if (::pipe(result_pipe) != 0) {
        ::close(task_pipe[0]);
        ::close(task_pipe[1]);
        return false;
      }
      std::fflush(nullptr);
      const pid_t pid = ::fork();
      if (pid == 0) {
        ::close(task_pipe[1]);
        ::close(result_pipe[0]);
        // Close the coordinator's fds to *other* live workers — inherited
        // copies would keep those workers' task pipes open past the
        // coordinator's shutdown close (EOF is the shutdown signal).
        for (const WorkerProc& other : workers) {
          if (&other != &w && other.alive) {
            ::close(other.task_fd);
            ::close(other.result_fd);
          }
        }
        worker_main(grid, exec, task_pipe[0], result_pipe[1]);
      }
      ::close(task_pipe[0]);
      ::close(result_pipe[1]);
      if (pid < 0) {
        ::close(task_pipe[1]);
        ::close(result_pipe[0]);
        return false;
      }
      w.pid = pid;
      w.task_fd = task_pipe[1];
      w.result_fd = result_pipe[0];
      w.in_flight.clear();
      w.last_frame = Clock::now();
      w.alive = true;
      return true;
    };

    auto respawn_if_needed = [&](WorkerProc& w) {
      if (outstanding > 0 && !ready.empty() && spawn_worker(w)) ++report.respawns;
    };

    // Sends the ready queue's front item to `w`. Returns false when the
    // worker is dead (write failed) — the item stays queued.
    auto dispatch = [&](WorkerProc& w) -> bool {
      const std::uint32_t item_id = ready.front();
      ByteWriter t;
      t.u8(kTaskMsg);
      t.u32(item_id);
      t.u8(item_warm[item_id] ? 1 : 0);
      t.u32(static_cast<std::uint32_t>(item_cells[item_id].size()));
      for (const std::size_t idx : item_cells[item_id]) t.u32(static_cast<std::uint32_t>(idx));
      if (!snap::wire::write_frame(w.task_fd, snap::wire::seal(std::move(t)))) return false;
      ready.pop_front();
      w.in_flight.push_back(item_id);
      ++report.shards;
      return true;
    };

    // Last resort when no worker can be kept alive (fork failure): the
    // coordinator runs the queue inline, cold.
    auto run_inline = [&] {
      while (!ready.empty()) {
        const std::uint32_t item_id = ready.front();
        ready.pop_front();
        ++report.shards;
        for (const std::size_t idx : item_pending[item_id]) {
          if (done[idx]) continue;
          run_cell_cold(report.sweep.cells[idx], 1, exec);
          finalize_cell(idx);
        }
        item_pending[item_id].clear();
      }
    };

    for (WorkerProc& w : workers) spawn_worker(w);

    while (outstanding > 0) {
      // Refill each live worker's bounded in-flight window (backpressure:
      // at most `window` items queued in a worker's task pipe).
      for (WorkerProc& w : workers) {
        if (!w.alive) continue;
        while (!ready.empty() && w.in_flight.size() < window) {
          if (!dispatch(w)) {
            kill_worker(w, /*drain=*/true);
            respawn_if_needed(w);
            break;
          }
        }
      }
      if (outstanding == 0) break;

      std::vector<struct pollfd> fds;
      std::vector<WorkerProc*> owners;
      for (WorkerProc& w : workers) {
        if (!w.alive) continue;
        fds.push_back({w.result_fd, POLLIN, 0});
        owners.push_back(&w);
      }
      if (fds.empty()) {
        // Every worker is dead. Try to restart one for the queue; if even
        // that fails, finish inline rather than spin.
        bool restarted = false;
        for (WorkerProc& w : workers) {
          if (!ready.empty() && spawn_worker(w)) {
            ++report.respawns;
            restarted = true;
            break;
          }
        }
        if (!restarted) run_inline();
        continue;
      }

      const int timeout_ms = options_.worker_timeout_seconds > 0.0 ? 200 : -1;
      const int nready = ::poll(fds.data(), static_cast<nfds_t>(fds.size()), timeout_ms);
      if (nready < 0) {
        if (errno == EINTR) continue;
        // poll itself failed: tear everything down (requeueing unreported
        // cells) and finish inline rather than hang.
        for (WorkerProc& w : workers) kill_worker(w, /*drain=*/true);
        run_inline();
        break;
      }

      for (std::size_t i = 0; i < fds.size(); ++i) {
        WorkerProc& w = *owners[i];
        if (!w.alive || (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        Bytes payload;
        const snap::wire::FrameStatus st = snap::wire::read_frame(w.result_fd, payload);
        if (st == snap::wire::FrameStatus::Ok) {
          std::span<const std::uint8_t> body;
          if (snap::wire::unseal(payload, body) && handle_frame(w, body)) {
            w.last_frame = Clock::now();
          } else {
            // Digest mismatch or malformed frame: the stream is corrupt,
            // so everything unreported re-runs cold on a fresh worker.
            kill_worker(w, /*drain=*/false);
            respawn_if_needed(w);
          }
        } else {
          // Eof (worker died cleanly or crashed) or Error (truncated
          // frame): either way the worker is gone.
          kill_worker(w, /*drain=*/false);
          respawn_if_needed(w);
        }
      }

      if (options_.worker_timeout_seconds > 0.0) {
        for (WorkerProc& w : workers) {
          if (w.alive && !w.in_flight.empty() &&
              elapsed_seconds(w.last_frame) > options_.worker_timeout_seconds) {
            kill_worker(w, /*drain=*/true);
            respawn_if_needed(w);
          }
        }
      }
    }

    // Wind down: closing a task pipe is the worker's EOF shutdown signal;
    // drain the final item frames (warm accounting), then reap.
    for (WorkerProc& w : workers) {
      if (!w.alive) continue;
      ::close(w.task_fd);
      w.task_fd = -1;
      drain_results(w);
      ::close(w.result_fd);
      w.result_fd = -1;
      reap(w);
      w.alive = false;
    }

    ::sigaction(SIGPIPE, &old_pipe, nullptr);
    report.sweep.wall_seconds = elapsed_seconds(campaign_start);
    journal.close();
    return report;
  }
#endif  // ATTAIN_DIST_POSIX

  // In-process fallback (non-POSIX, or fork unavailable — e.g. under
  // ThreadSanitizer): the remaining cells run on a SweepRunner thread pool
  // with identical cell semantics; the journal is written after the sweep,
  // so resume still works, just without mid-run crash durability.
  std::vector<std::size_t> remaining;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    if (!done[i]) remaining.push_back(i);
  }
  report.shards = plan.size();
  if (!remaining.empty()) {
    std::vector<scenario::RunSpec> sub;
    sub.reserve(remaining.size());
    for (const std::size_t idx : remaining) sub.push_back(grid[idx]);
    SweepOptions so;
    so.threads = report.workers;
    so.max_attempts = options_.max_attempts;
    so.cell_timeout_seconds = options_.cell_timeout_seconds;
    so.warm_start = options_.warm_start;
    so.warm_tail_processes = options_.warm_tail_processes;
    if (options_.on_progress) {
      const std::size_t offset = completed_count;
      so.on_progress = [this, offset, total = grid.size()](const Progress& p) {
        Progress outer;
        outer.completed = offset + p.completed;
        outer.total = total;
        outer.cell = p.cell;
        options_.on_progress(outer);
      };
    }
    SweepReport inner = SweepRunner(so).run(sub);
    for (std::size_t k = 0; k < remaining.size(); ++k) {
      report.sweep.cells[remaining[k]] = std::move(inner.cells[k]);
      if (journal.is_open() &&
          journal.append(remaining[k], report.sweep.cells[remaining[k]])) {
        ++report.journal_records;
      }
    }
    report.sweep.warm_groups = inner.warm_groups;
    report.sweep.warm_cells = inner.warm_cells;
  }
  report.sweep.wall_seconds = elapsed_seconds(campaign_start);
  journal.close();
  return report;
}

std::string DistributedReport::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.key("timing").begin_object();
  w.field("workers", static_cast<std::uint64_t>(workers));
  w.field("wall_seconds", sweep.wall_seconds);
  w.field("total_virtual_seconds", to_seconds(sweep.total_virtual_time()));
  w.field("time_compression", sweep.time_compression());
  w.field("warm_groups", static_cast<std::uint64_t>(sweep.warm_groups));
  w.field("warm_cells", static_cast<std::uint64_t>(sweep.warm_cells));
  w.field("shards", static_cast<std::uint64_t>(shards));
  w.field("respawns", static_cast<std::uint64_t>(respawns));
  w.field("resumed_cells", static_cast<std::uint64_t>(resumed_cells));
  w.field("journal_records", static_cast<std::uint64_t>(journal_records));
  w.end_object();
  w.key("cells").begin_array();
  for (const CellOutcome& c : sweep.cells) c.write_json(w, /*timing=*/true);
  w.end_array();
  w.end_object();
  return w.str();
}

std::string DistributedReport::summary() const {
  char buf[384];
  std::snprintf(buf, sizeof(buf),
                "%zu cells (%zu ok, %zu failed) on %u worker process%s: wall %.2fs, simulated "
                "%.0fs virtual (%.1fx real time), %zu shard%s",
                sweep.cells.size(), sweep.ok(), sweep.failed(), workers,
                workers == 1 ? "" : "es", sweep.wall_seconds,
                to_seconds(sweep.total_virtual_time()), sweep.time_compression(), shards,
                shards == 1 ? "" : "s");
  std::string out = buf;
  if (sweep.warm_cells > 0) {
    std::snprintf(buf, sizeof(buf), ", %zu warm cell%s from %zu shared warm-up%s",
                  sweep.warm_cells, sweep.warm_cells == 1 ? "" : "s", sweep.warm_groups,
                  sweep.warm_groups == 1 ? "" : "s");
    out += buf;
  }
  if (respawns > 0) {
    std::snprintf(buf, sizeof(buf), ", %zu worker respawn%s", respawns,
                  respawns == 1 ? "" : "s");
    out += buf;
  }
  if (resumed_cells > 0) {
    std::snprintf(buf, sizeof(buf), ", %zu cell%s resumed from journal", resumed_cells,
                  resumed_cells == 1 ? "" : "s");
    out += buf;
  }
  return out;
}

}  // namespace attain::sweep
