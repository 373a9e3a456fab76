// Parallel experiment sweep engine. A SweepRunner executes an N-cell grid
// of independent scenario::RunSpec simulations on a thread pool: each
// cell's Scheduler stays single-threaded and deterministic, so a grid run
// with 1 thread and with N threads produces bit-identical per-cell results
// (the determinism tests compare the emitted JSON byte-for-byte). The
// runner captures per-cell exceptions (a failing cell is reported as
// `failed` without poisoning its siblings), retries failed cells, accounts
// wall-clock and virtual time, and reports live progress.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/types.hpp"
#include "scenario/run.hpp"

namespace attain::sweep {

enum class CellStatus : std::uint8_t {
  Ok,        // produced a result
  Failed,    // every attempt threw; `error` holds the last exception text
  TimedOut,  // completed but exceeded the per-cell wall budget (cells are
             // cooperative — they are never killed mid-simulation)
};

std::string to_string(CellStatus status);

/// Outcome of one grid cell, in grid order.
struct CellOutcome {
  scenario::RunSpec spec;
  CellStatus status{CellStatus::Failed};
  std::string error;                      // last exception text (Failed)
  unsigned attempts{0};                   // executions incl. retries
  double wall_seconds{0.0};               // last attempt's wall time
  scenario::RunResultPtr result;          // null unless Ok/TimedOut
  /// Distributed-runner accounting (sweep/distributed.*): global
  /// allocations the worker process performed while running this cell, and
  /// its thread slab's reserved bytes after the cell's teardown boundary —
  /// the per-worker steady-state memory guard reads these. Zero for
  /// thread-pool sweeps and when alloc_hook is not linked into the binary.
  /// Deliberately absent from the deterministic JSON.
  std::uint64_t worker_allocations{0};
  std::uint64_t worker_slab_reserved{0};

  /// JSON for this cell: spec + status + result. Deterministic unless
  /// `timing` adds the wall-clock fields (attempts, wall_seconds).
  void write_json(JsonWriter& w, bool timing = false) const;
};

/// A cell outcome as read back from a process boundary, with the grid
/// index it was written under. The spec is left default: the reader's
/// side owns the specs.
struct OutcomeRecord {
  std::size_t index{0};
  CellOutcome outcome;
};

/// The one binary record for a finished cell, written wherever an outcome
/// crosses a process boundary: a warm tail reporting to its group's parent
/// (run_warm_group), a distributed worker streaming to its coordinator
/// (sweep/distributed.cpp), and each campaign journal record
/// (sweep/journal.hpp). All integers big-endian:
///
///   u32 index | u8 status | u32 attempts | u64 wall_bits
///   | u32 error_len | error bytes | u8 has_result | [save_result bytes]
///
/// Returns the offset in `w` at which the save_result bytes begin (where
/// they would begin when there is no result), so a caller can hash them in
/// place: fnv1a64 of those bytes is scenario::result_digest.
/// Throws std::invalid_argument when the result has no binary codec
/// (custom result types); `w` is then left partially written.
std::size_t write_outcome(ByteWriter& w, std::size_t index, const CellOutcome& outcome);

/// Reads one record written by write_outcome. Throws DecodeError on a
/// short record, an unknown status byte or an undecodable result; nothing
/// else escapes.
OutcomeRecord read_outcome(ByteReader& r);

struct Progress {
  std::size_t completed{0};
  std::size_t total{0};
  const CellOutcome* cell{nullptr};
};

struct SweepOptions {
  /// Worker threads for cold cells; 0 = std::thread::hardware_concurrency().
  /// 1 runs the grid inline on the calling thread. Warm-start groups always
  /// run on the calling thread, before the pool starts (they fork).
  unsigned threads{0};
  /// Executions per cell before giving up (1 = no retry).
  unsigned max_attempts{1};
  /// Per-cell wall-clock budget in seconds; 0 = unlimited. Checked when
  /// the cell completes (cooperative, deterministic results untouched).
  double cell_timeout_seconds{0.0};
  /// Called exactly once per cell, when the cell's outcome is final —
  /// retries and warm-start fallbacks never re-fire it, so `completed`
  /// marches 1..total. (Serialized; any thread.) Use
  /// make_progress_printer() for a stderr ticker.
  std::function<void(const Progress&)> on_progress;
  /// Opt-in warm-start: cells sharing a scenario::warmup_signature run
  /// from one copy-on-write snapshot fork (src/snap/) instead of each
  /// replaying the shared prefix. Results are byte-identical to cold runs
  /// (results_json does not change); cells that share nothing — unique
  /// signatures, custom cells — run cold, as does everything when
  /// snap::fork_supported() is false.
  bool warm_start{false};
  /// Concurrent tail processes per warm group.
  int warm_tail_processes{4};
};

/// Progress callback printing "[3/12] interruption/POX/fail-secure ok
/// (wall 1.24s, virtual 125s)" lines to stderr.
std::function<void(const Progress&)> make_progress_printer();

/// Everything a sweep produced, cells in grid order.
struct SweepReport {
  std::vector<CellOutcome> cells;
  unsigned threads{0};
  double wall_seconds{0.0};  // whole sweep
  /// Warm-start accounting: groups that produced at least one forked
  /// result, and cells whose result came from a forked tail. Both zero for
  /// cold sweeps.
  std::size_t warm_groups{0};
  std::size_t warm_cells{0};

  std::size_t ok() const;
  std::size_t failed() const;
  /// Sum of per-cell simulated virtual time.
  SimTime total_virtual_time() const;
  /// Simulated virtual seconds per wall second (the sweep's speedup over
  /// real time).
  double time_compression() const;

  const CellOutcome* find(const std::string& cell_id) const;

  /// Deterministic results document: {"cells": [...]} with spec + status +
  /// result per cell, grid-ordered, no wall-clock fields. Byte-identical
  /// across thread counts — the artifact tests and the speedup bench diff.
  std::string results_json() const;
  /// Full document: results plus wall-clock accounting ("timing" object
  /// and per-cell wall seconds/attempts).
  std::string to_json() const;
  /// Human summary line(s).
  std::string summary() const;
};

/// Thread-pool executor for RunSpec grids.
class SweepRunner {
 public:
  explicit SweepRunner(SweepOptions options = {});

  /// Runs every cell to completion; never throws for cell errors (they
  /// land in CellOutcome::status). Cells are claimed in grid order.
  SweepReport run(const std::vector<scenario::RunSpec>& grid) const;

  unsigned resolved_threads() const;

 private:
  SweepOptions options_;
};

// ---------------------------------------------------------------------------
// Cell-execution core: the per-cell semantics (retry budget, cooperative
// timeout, warm-group fallback rules) shared verbatim by the thread-pool
// SweepRunner above and the multi-process DistributedRunner
// (sweep/distributed.hpp). Because both runners call exactly these
// functions, an N-worker campaign's merged results are byte-identical to
// a single-process sweep by construction.
// ---------------------------------------------------------------------------

struct CellExecOptions {
  unsigned max_attempts{1};
  double cell_timeout_seconds{0.0};
  int warm_tail_processes{4};
};

/// Runs attempts first_attempt..max_attempts of `cell.spec` cold on the
/// calling thread, filling status/attempts/wall/error/result. Earlier
/// attempts (e.g. a warm tail whose cell threw) are assumed already
/// accounted in cell.attempts/error by the caller.
void run_cell_cold(CellOutcome& cell, unsigned first_attempt, const CellExecOptions& options);

/// Runs one warm-signature group from a shared COW snapshot fork
/// (snap::run_group). Each tail runs the same attempt run_cell_cold does,
/// on its forked warm-up, and ships the outcome as a write_outcome record.
/// Per cell: a tail that reported a cell exception (status Failed)
/// consumes attempt 1 and retries cold; a tail that never reported, or
/// whose record does not decode (infrastructure failure), re-runs cold
/// with the full budget. `outcomes` is parallel to `cells` (specs already
/// filled in). `on_final(cell)` fires exactly once per cell when its
/// outcome is final. Returns the number of warm (forked) results.
std::size_t run_warm_group(const std::vector<scenario::RunSpec>& cells,
                           const std::vector<CellOutcome*>& outcomes,
                           const CellExecOptions& options,
                           const std::function<void(CellOutcome&)>& on_final);

/// One unit of claimable work: a single cold cell, or a whole
/// warm-signature group (cells sharing one warm-up, run from one fork —
/// never split across threads or worker processes, which is what makes
/// shard assignment warm-start-signature-affine).
struct WorkItem {
  std::vector<std::size_t> cells;  // grid indices
  bool warm{false};
};

/// Partitions `grid` into work items, ordered by first grid index so
/// claiming stays deterministic. With warm_start, cells sharing a
/// warmup_signature group into one item (singleton groups run cold).
/// `skip` (optional, grid-sized) excludes cells — the resume path: cells
/// already completed in a journal are not re-planned.
std::vector<WorkItem> plan_work_items(const std::vector<scenario::RunSpec>& grid,
                                      bool warm_start,
                                      const std::vector<bool>* skip = nullptr);

}  // namespace attain::sweep
