#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/rng.hpp"

namespace e2e {

std::size_t samples_beyond(std::size_t n, double p) {
  // The epsilon keeps exact products (100 x 10%) from flooring one short.
  return static_cast<std::size_t>(std::floor(static_cast<double>(n) * (100.0 - p) / 100.0 + 1e-9));
}

std::optional<Quantile> percentile(std::vector<double> values, double p, std::size_t min_beyond) {
  if (!(p > 0.0 && p < 100.0)) throw std::invalid_argument("percentile: p must be in (0, 100)");
  if (values.empty() || samples_beyond(values.size(), p) < min_beyond) return std::nullopt;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return Quantile{values[lo] + (values[hi] - values[lo]) * frac, values.size()};
}

double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median: empty sample");
  return percentile(std::move(values), 50.0, 0)->value;
}

double dispatch_ms_per_cell(unsigned workers, double campaign_wall_s, double sum_cell_wall_s,
                            std::size_t cells) {
  if (cells == 0) throw std::invalid_argument("dispatch_ms_per_cell: no cells");
  return (static_cast<double>(workers) * campaign_wall_s - sum_cell_wall_s) * 1e3 /
         static_cast<double>(cells);
}

void Tally::record(const std::string& reason) {
  ++attempted;
  if (reason.empty()) return;
  ++failed;
  reasons.push_back(reason);
}

std::vector<attain::SimTime> stratified_starts(std::uint64_t seed, std::uint64_t stream,
                                               attain::SimTime lo, attain::SimTime hi,
                                               std::size_t count) {
  using attain::kMillisecond;
  const attain::SimTime span_ms = (hi - lo) / kMillisecond;
  if (count == 0 || span_ms < static_cast<attain::SimTime>(count)) {
    throw std::invalid_argument("stratified_starts: need at least 1 ms per stratum");
  }
  // Stream mixing: distinct streams of one seed must not share a prefix.
  attain::Rng rng(seed * 0x9e3779b97f4a7c15ULL ^ (stream + 1) * 0xbf58476d1ce4e5b9ULL);
  const auto n = static_cast<attain::SimTime>(count);
  std::vector<attain::SimTime> starts;
  starts.reserve(count);
  for (attain::SimTime i = 0; i < n; ++i) {
    // Stratum i covers milliseconds (lo_i, hi_i] of (0, span_ms].
    const attain::SimTime lo_i = i * span_ms / n;
    const attain::SimTime hi_i = (i + 1) * span_ms / n;
    const auto offset = lo_i + 1 + static_cast<attain::SimTime>(
                                       rng.next_below(static_cast<std::uint64_t>(hi_i - lo_i)));
    starts.push_back(lo + offset * kMillisecond);
  }
  return starts;
}

}  // namespace e2e
