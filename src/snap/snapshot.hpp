// Copy-on-write testbed forking: runs a group of experiment cells that
// share one warm-up signature from a single shared prefix. The simulation
// state (scheduler event pool, switches, controller, channels, host apps)
// is riddled with closures capturing raw component pointers, so it cannot
// be deep-cloned generically — instead the snapshot is the operating
// system's copy-on-write fork(): a group child builds and advances the
// shared warm-up once, then forks one tail process per cell at that cell's
// fork point. Every address is preserved across fork, so the captured
// pointers stay valid, and pages are only copied as the diverging tails
// write to them. Each tail ships one blob back over its own pipe; what the
// blob holds is the caller's business (sweep::run_warm_group sends a
// cell-outcome record, sweep/sweep.hpp).
//
// Because scenario::run() is itself implemented as warm_up + advance_to +
// finish (scenario/run.hpp), a forked tail executes the exact instruction
// sequence of a cold run — results are byte-identical by construction,
// which the differential tests in tests/test_snapshot.cpp verify over the
// full Table II and Fig. 11 grids.
#pragma once

#include <functional>
#include <vector>

#include "common/bytes.hpp"
#include "scenario/run.hpp"

namespace attain::snap {

/// True when process-fork snapshots work here: a POSIX host, not running
/// under ThreadSanitizer (fork from a threaded parent is unreliable under
/// TSan). When false, run_group returns an empty blob for every cell and
/// callers fall back to cold runs.
bool fork_supported();

/// What one forked tail process runs: finish cell `k` (an index into the
/// group's `cells`) from the shared warm-up `phase`, and return the bytes
/// to ship back to the group's parent. An exception, or an empty return,
/// ships nothing.
using TailBody = std::function<Bytes(scenario::WarmupPhase& phase, std::size_t k)>;

/// Runs every cell of one warm-up group from a shared forked prefix.
/// `rep` must be the group's warmup_representative and every cell must
/// carry the same warmup_signature (and therefore a valid fork_time). At
/// most `max_live_tails` tail processes are alive at once. Returns one
/// blob per cell, indexed like `cells`: what the cell's tail body
/// returned, or empty when the tail never reported (fork/pipe failure,
/// crashed child, failed warm-up). The blob format belongs to the caller;
/// this layer only moves bytes. Never throws for infrastructure failures.
std::vector<Bytes> run_group(const scenario::RunSpec& rep,
                             const std::vector<scenario::RunSpec>& cells, int max_live_tails,
                             const TailBody& tail);

}  // namespace attain::snap
