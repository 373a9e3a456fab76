// The benchmark's own arithmetic: order statistics with the sample counts
// that justify them, the campaign dispatch-overhead formula, failure
// tallies, and the seeded draw of attack-start times. Kept free of any
// simulation code so tests/selftest.cpp can pin every formula.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace e2e {

/// An order statistic together with the number of samples it was taken
/// over, so reports never print a percentile without its support.
struct Quantile {
  double value{0.0};
  std::size_t samples{0};
};

/// Samples strictly above the p-th percentile of n samples (the tail a
/// p-percentile rests on): floor(n * (1 - p / 100)).
std::size_t samples_beyond(std::size_t n, double p);

/// The p-th percentile (0 < p < 100) by linear interpolation between closest
/// ranks, or nullopt when fewer than `min_beyond` samples lie beyond it (a
/// p90 needs 100 samples to have ten beyond it).
std::optional<Quantile> percentile(std::vector<double> values, double p,
                                   std::size_t min_beyond = 10);

/// Median of a non-empty sample, without a support requirement (used for
/// repeated set-up and replay timings, where every sample is one repeat).
double median(std::vector<double> values);

/// Campaign coordination cost per cell: the worker-seconds the campaign
/// held (workers x wall) minus the seconds cells spent simulating, spread
/// over the cells, in milliseconds.
double dispatch_ms_per_cell(unsigned workers, double campaign_wall_s, double sum_cell_wall_s,
                            std::size_t cells);

/// Cells attempted and failed. A cell fails when it throws, times out, or
/// fails its output check; each failure keeps its first reason.
struct Tally {
  std::size_t attempted{0};
  std::size_t failed{0};
  std::vector<std::string> reasons;

  /// Records one cell; `reason` empty means it passed.
  void record(const std::string& reason);
};

/// `count` attack-start times drawn from `seed`, one per equal stratum of
/// (lo, hi], rounded to whole milliseconds, strictly increasing. Drawing one
/// time per stratum keeps the grid's mix of early and late starts the same
/// for every seed, so run-to-run cost differences come from the host, not
/// from the draw. `stream` separates independent draws from one seed.
std::vector<attain::SimTime> stratified_starts(std::uint64_t seed, std::uint64_t stream,
                                               attain::SimTime lo, attain::SimTime hi,
                                               std::size_t count);

}  // namespace e2e
