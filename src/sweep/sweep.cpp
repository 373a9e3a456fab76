#include "sweep/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdio>
#include <exception>
#include <map>
#include <mutex>
#include <optional>
#include <thread>

#include "attain/monitor/metrics.hpp"
#include "common/arena.hpp"
#include "snap/snapshot.hpp"

namespace attain::sweep {

namespace {

using Clock = std::chrono::steady_clock;

double elapsed_seconds(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

std::string to_string(CellStatus status) {
  switch (status) {
    case CellStatus::Ok: return "ok";
    case CellStatus::Failed: return "failed";
    case CellStatus::TimedOut: return "timed-out";
  }
  return "?";
}

void CellOutcome::write_json(JsonWriter& w, bool timing) const {
  w.begin_object();
  w.key("spec");
  spec.write_json(w);
  w.field("status", to_string(status));
  if (!error.empty()) w.field("error", error);
  if (timing) {
    w.field("attempts", static_cast<std::uint64_t>(attempts));
    w.field("wall_seconds", wall_seconds);
  }
  w.key("result");
  if (result) {
    result->write_json(w);
  } else {
    w.null();
  }
  w.end_object();
}

std::size_t write_outcome(ByteWriter& w, std::size_t index, const CellOutcome& outcome) {
  w.u32(static_cast<std::uint32_t>(index));
  w.u8(static_cast<std::uint8_t>(outcome.status));
  w.u32(outcome.attempts);
  w.u64(std::bit_cast<std::uint64_t>(outcome.wall_seconds));
  w.u32(static_cast<std::uint32_t>(outcome.error.size()));
  w.raw({reinterpret_cast<const std::uint8_t*>(outcome.error.data()), outcome.error.size()});
  w.u8(outcome.result ? 1 : 0);
  const std::size_t result_at = w.size();
  if (outcome.result) scenario::save_result(*outcome.result, w);
  return result_at;
}

OutcomeRecord read_outcome(ByteReader& r) {
  OutcomeRecord rec;
  rec.index = r.u32();
  const std::uint8_t status = r.u8();
  if (status > static_cast<std::uint8_t>(CellStatus::TimedOut)) {
    throw DecodeError("cell outcome: unknown status " + std::to_string(status));
  }
  rec.outcome.status = static_cast<CellStatus>(status);
  rec.outcome.attempts = r.u32();
  rec.outcome.wall_seconds = std::bit_cast<double>(r.u64());
  const auto error = r.view(r.u32());
  rec.outcome.error.assign(error.begin(), error.end());
  if (r.u8() != 0) rec.outcome.result = scenario::load_result(r);
  return rec;
}

std::function<void(const Progress&)> make_progress_printer() {
  return [](const Progress& p) {
    const CellOutcome& cell = *p.cell;
    std::fprintf(stderr, "[%zu/%zu] %s %s (wall %.2fs, virtual %.0fs)%s%s\n", p.completed,
                 p.total, cell.spec.id().c_str(), to_string(cell.status).c_str(),
                 cell.wall_seconds,
                 cell.result ? to_seconds(cell.result->virtual_time) : 0.0,
                 cell.error.empty() ? "" : " — ", cell.error.c_str());
  };
}

std::size_t SweepReport::ok() const {
  std::size_t n = 0;
  for (const CellOutcome& c : cells) {
    if (c.status == CellStatus::Ok) ++n;
  }
  return n;
}

std::size_t SweepReport::failed() const {
  std::size_t n = 0;
  for (const CellOutcome& c : cells) {
    if (c.status == CellStatus::Failed) ++n;
  }
  return n;
}

SimTime SweepReport::total_virtual_time() const {
  SimTime total = 0;
  for (const CellOutcome& c : cells) {
    if (c.result) total += c.result->virtual_time;
  }
  return total;
}

double SweepReport::time_compression() const {
  if (wall_seconds <= 0.0) return 0.0;
  return to_seconds(total_virtual_time()) / wall_seconds;
}

const CellOutcome* SweepReport::find(const std::string& cell_id) const {
  for (const CellOutcome& c : cells) {
    if (c.spec.id() == cell_id) return &c;
  }
  return nullptr;
}

std::string SweepReport::results_json() const {
  JsonWriter w;
  w.begin_object();
  w.key("cells").begin_array();
  for (const CellOutcome& c : cells) c.write_json(w);
  w.end_array();
  w.end_object();
  return w.str();
}

std::string SweepReport::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.key("timing").begin_object();
  w.field("threads", static_cast<std::uint64_t>(threads));
  w.field("wall_seconds", wall_seconds);
  w.field("total_virtual_seconds", to_seconds(total_virtual_time()));
  w.field("time_compression", time_compression());
  w.field("warm_groups", static_cast<std::uint64_t>(warm_groups));
  w.field("warm_cells", static_cast<std::uint64_t>(warm_cells));
  w.end_object();
  w.key("cells").begin_array();
  for (const CellOutcome& c : cells) c.write_json(w, /*timing=*/true);
  w.end_array();
  w.end_object();
  return w.str();
}

std::string SweepReport::summary() const {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "%zu cells (%zu ok, %zu failed) on %u thread%s: wall %.2fs, simulated %.0fs "
                "virtual (%.1fx real time)",
                cells.size(), ok(), failed(), threads, threads == 1 ? "" : "s", wall_seconds,
                to_seconds(total_virtual_time()), time_compression());
  std::string out = buf;
  if (warm_cells > 0) {
    std::snprintf(buf, sizeof(buf), ", %zu warm cell%s from %zu shared warm-up%s", warm_cells,
                  warm_cells == 1 ? "" : "s", warm_groups, warm_groups == 1 ? "" : "s");
    out += buf;
  }
  return out;
}

namespace {

/// One attempt at a cell: `body` produces the result (a whole cold run, or
/// a forked tail's finish()). Fills result/wall/error/status and returns
/// whether the attempt succeeded; a failed attempt leaves status Failed.
template <typename Body>
bool run_attempt(CellOutcome& cell, Body&& body, const CellExecOptions& options) {
  const auto start = Clock::now();
  try {
    cell.result = body();
    cell.wall_seconds = elapsed_seconds(start);
    cell.error.clear();
    cell.status = (options.cell_timeout_seconds > 0.0 &&
                   cell.wall_seconds > options.cell_timeout_seconds)
                      ? CellStatus::TimedOut
                      : CellStatus::Ok;
    return true;
  } catch (const std::exception& e) {
    cell.error = e.what();
  } catch (...) {
    cell.error = "unknown exception";
  }
  cell.wall_seconds = elapsed_seconds(start);
  cell.status = CellStatus::Failed;
  cell.result.reset();
  return false;
}

}  // namespace

void run_cell_cold(CellOutcome& cell, unsigned first_attempt, const CellExecOptions& options) {
  const unsigned max_attempts = options.max_attempts > 0 ? options.max_attempts : 1;
  for (unsigned attempt = first_attempt; attempt <= max_attempts; ++attempt) {
    cell.attempts = attempt;
    if (run_attempt(cell, [&] { return scenario::run(cell.spec); }, options)) return;
  }
}

std::size_t run_warm_group(const std::vector<scenario::RunSpec>& cells,
                           const std::vector<CellOutcome*>& outcomes,
                           const CellExecOptions& options,
                           const std::function<void(CellOutcome&)>& on_final) {
  const unsigned max_attempts = options.max_attempts > 0 ? options.max_attempts : 1;
  const std::vector<Bytes> blobs = snap::run_group(
      scenario::warmup_representative(cells.front()), cells, options.warm_tail_processes,
      [&](scenario::WarmupPhase& phase, std::size_t k) {
        CellOutcome tail;
        tail.attempts = 1;
        run_attempt(tail, [&] { return phase.finish(cells[k]); }, options);
        ByteWriter w;
        write_outcome(w, k, tail);
        return std::move(w).take();
      });

  std::size_t warm_cells = 0;
  for (std::size_t k = 0; k < cells.size(); ++k) {
    CellOutcome& cell = *outcomes[k];
    std::optional<OutcomeRecord> rec;
    try {
      ByteReader r(blobs[k]);
      rec = read_outcome(r);
    } catch (const DecodeError&) {
      // Empty (the tail never reported) or garbled.
    }
    if (!rec) {
      // Infrastructure failure (fork/pipe/crashed child), not a cell
      // failure: the full cold attempt budget applies.
      run_cell_cold(cell, 1, options);
    } else {
      rec->outcome.spec = std::move(cell.spec);
      cell = std::move(rec->outcome);
      if (cell.status != CellStatus::Failed) {
        ++warm_cells;
      } else if (max_attempts > 1) {
        // The cell itself threw inside the tail — the same exception a
        // cold run would have raised, so it consumed attempt 1; the
        // remaining budget runs cold.
        run_cell_cold(cell, 2, options);
      }
    }
    if (on_final) on_final(cell);
  }
  return warm_cells;
}

std::vector<WorkItem> plan_work_items(const std::vector<scenario::RunSpec>& grid,
                                      bool warm_start, const std::vector<bool>* skip) {
  std::vector<WorkItem> items;
  std::map<std::string, std::vector<std::size_t>> groups;
  std::vector<std::size_t> singles;
  const bool group_cells = warm_start && snap::fork_supported();
  for (std::size_t i = 0; i < grid.size(); ++i) {
    if (skip != nullptr && (*skip)[i]) continue;
    if (group_cells) {
      if (const auto sig = scenario::warmup_signature(grid[i])) {
        groups[*sig].push_back(i);
        continue;
      }
    }
    singles.push_back(i);
  }
  for (auto& [sig, members] : groups) {
    if (members.size() >= 2) {
      items.push_back(WorkItem{std::move(members), true});
    } else {
      singles.push_back(members.front());  // nothing to share with
    }
  }
  for (const std::size_t i : singles) items.push_back(WorkItem{{i}, false});
  std::sort(items.begin(), items.end(),
            [](const WorkItem& a, const WorkItem& b) { return a.cells.front() < b.cells.front(); });
  return items;
}

SweepRunner::SweepRunner(SweepOptions options) : options_(std::move(options)) {}

unsigned SweepRunner::resolved_threads() const {
  if (options_.threads > 0) return options_.threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

SweepReport SweepRunner::run(const std::vector<scenario::RunSpec>& grid) const {
  SweepReport report;
  report.threads = resolved_threads();
  report.cells.resize(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) report.cells[i].spec = grid[i];

  const auto sweep_start = Clock::now();
  CellExecOptions exec;
  exec.max_attempts = options_.max_attempts;
  exec.cell_timeout_seconds = options_.cell_timeout_seconds;
  exec.warm_tail_processes = options_.warm_tail_processes;

  const std::vector<WorkItem> items = plan_work_items(grid, options_.warm_start);

  std::atomic<std::size_t> completed{0};
  std::mutex progress_mutex;

  // Fires the cell's (single) progress notification; call exactly once per
  // cell, after its outcome is final — retries and warm-start fallbacks
  // must never reach this twice.
  auto finalize = [&](CellOutcome& cell) {
    const std::size_t done = completed.fetch_add(1) + 1;
    if (options_.on_progress) {
      Progress p;
      p.completed = done;
      p.total = report.cells.size();
      p.cell = &cell;
      const std::lock_guard<std::mutex> lock(progress_mutex);
      options_.on_progress(p);
    }
  };

  // Every warm group forks, and fork() is only safe while no other thread
  // runs: the child inherits any lock another thread holds (a 4-thread warm
  // campaign hung on one under ASan). So warm items run here, before the
  // pool starts; each group already runs its tails as parallel processes.
  std::vector<std::size_t> cold;
  for (const WorkItem& item : items) {
    if (!item.warm) {
      cold.push_back(item.cells.front());
      continue;
    }
    std::vector<scenario::RunSpec> cells;
    std::vector<CellOutcome*> outcomes;
    cells.reserve(item.cells.size());
    outcomes.reserve(item.cells.size());
    for (const std::size_t i : item.cells) {
      cells.push_back(grid[i]);
      outcomes.push_back(&report.cells[i]);
    }
    const std::size_t warm = run_warm_group(cells, outcomes, exec, finalize);
    report.warm_cells += warm;
    if (warm > 0) ++report.warm_groups;
    // run() marks boundaries for cold cells; warm tails complete in forked
    // children, so mark the parent's boundary per group here.
    mem::run_boundary();
  }

  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    while (true) {
      const std::size_t i = next.fetch_add(1);
      if (i >= cold.size()) return;
      CellOutcome& cell = report.cells[cold[i]];
      run_cell_cold(cell, 1, exec);
      finalize(cell);
    }
  };

  if (report.threads <= 1 || cold.size() <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    const unsigned n = std::min<std::size_t>(report.threads, cold.size());
    pool.reserve(n);
    for (unsigned t = 0; t < n; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }

  report.wall_seconds = elapsed_seconds(sweep_start);
  return report;
}

}  // namespace attain::sweep
