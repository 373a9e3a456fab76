// Self-test of the benchmark's own arithmetic and grid generation:
//   cmake --build <build> --target e2e_selftest && <build>/e2e_selftest
// Exits non-zero and names the first failed check.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "stats.hpp"
#include "workloads.hpp"

namespace {

int g_failures = 0;

void check(bool ok, const std::string& what) {
  if (ok) return;
  std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  ++g_failures;
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

template <typename F>
bool throws(F&& f) {
  try {
    f();
  } catch (const std::exception&) {
    return true;
  }
  return false;
}

std::vector<double> iota(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 0; i < n; ++i) v.push_back(static_cast<double>(n - i));  // unsorted
  return v;
}

void test_percentile() {
  check(e2e::samples_beyond(20, 50) == 10, "20 samples leave 10 beyond the median");
  check(e2e::samples_beyond(99, 90) == 9, "99 samples leave 9 beyond p90");
  check(e2e::samples_beyond(100, 90) == 10, "100 samples leave 10 beyond p90");

  check(!e2e::percentile(iota(19), 50).has_value(), "p50 of 19 samples is unsupported");
  const auto p50 = e2e::percentile(iota(20), 50);
  check(p50 && near(p50->value, 10.5) && p50->samples == 20, "p50 of 1..20 is 10.5 over 20");
  check(!e2e::percentile(iota(99), 90).has_value(), "p90 of 99 samples is unsupported");
  const auto p90 = e2e::percentile(iota(100), 90);
  check(p90 && near(p90->value, 90.1) && p90->samples == 100, "p90 of 1..100 is 90.1");
  check(throws([] { (void)e2e::percentile({1.0}, 100.0); }), "p100 is rejected");

  check(near(e2e::median({3.0, 1.0, 2.0}), 2.0), "median of odd sample");
  check(near(e2e::median({4.0, 1.0, 3.0, 2.0}), 2.5), "median of even sample");
  check(near(e2e::median({7.0}), 7.0), "median of one sample");
  check(throws([] { (void)e2e::median({}); }), "median of nothing is rejected");
}

void test_dispatch() {
  // 2 workers held for 10 s = 20 worker-seconds; cells simulated for 18 s;
  // the 2 s left over, spread over 40 cells, is 50 ms per cell.
  check(near(e2e::dispatch_ms_per_cell(2, 10.0, 18.0, 40), 50.0), "dispatch formula");
  check(near(e2e::dispatch_ms_per_cell(1, 4.0, 4.0, 8), 0.0), "no overhead when fully busy");
  check(throws([] { (void)e2e::dispatch_ms_per_cell(2, 1.0, 1.0, 0); }), "zero cells rejected");
}

void test_tally() {
  e2e::Tally a;
  a.record("");
  a.record("threw: boom");
  a.record("");
  a.record("timed out");
  check(a.attempted == 4 && a.failed == 2, "tally counts attempts and failures");
  check(a.reasons.size() == 2 && a.reasons[0] == "threw: boom" && a.reasons[1] == "timed out",
        "tally keeps reasons in order");
}

void test_starts() {
  using attain::kMillisecond;
  using attain::kSecond;
  const auto s1 = e2e::stratified_starts(7, 1, 5 * kSecond, 45 * kSecond, 4);
  const auto s2 = e2e::stratified_starts(7, 1, 5 * kSecond, 45 * kSecond, 4);
  check(s1 == s2, "same seed gives the same starts");
  check(s1 != e2e::stratified_starts(8, 1, 5 * kSecond, 45 * kSecond, 4), "seed changes starts");
  check(s1 != e2e::stratified_starts(7, 2, 5 * kSecond, 45 * kSecond, 4),
        "stream changes starts");
  for (std::size_t i = 0; i < s1.size(); ++i) {
    const attain::SimTime lo = 5 * kSecond + static_cast<attain::SimTime>(i) * 10 * kSecond;
    check(s1[i] > lo && s1[i] <= lo + 10 * kSecond, "start lies in its stratum");
    check(s1[i] % kMillisecond == 0, "start is whole milliseconds");
  }
  check(throws([] { (void)e2e::stratified_starts(1, 1, 0, 2 * kMillisecond, 3); }),
        "strata narrower than 1 ms rejected");
}

void test_grids() {
  using attain::scenario::ExperimentKind;
  for (const auto w : {e2e::Workload::Fig11, e2e::Workload::Flood, e2e::Workload::Campaign}) {
    const auto a = e2e::make_grid(w, 42);
    const auto b = e2e::make_grid(w, 42);
    check(a.size() == b.size(), "same seed, same grid size: " + e2e::to_string(w));
    bool same = a.size() == b.size();
    for (std::size_t i = 0; same && i < a.size(); ++i) same = a[i].to_json() == b[i].to_json();
    check(same, "same seed gives byte-identical specs: " + e2e::to_string(w));
    check(attain::scenario::grid_digest(a) != attain::scenario::grid_digest(e2e::make_grid(w, 43)),
          "another seed gives another grid: " + e2e::to_string(w));
    check(e2e::parse_workload(e2e::to_string(w)) == w, "workload name round trip");
  }
  check(!e2e::parse_workload("storm").has_value(), "unknown workload rejected");

  const auto fig11 = e2e::fig11_grid(1);
  check(fig11.size() == 3 * (2 + e2e::pinned::kFig11SeededStarts), "fig11 grid size");
  std::size_t t5 = 0;
  for (const auto& spec : fig11) {
    check(spec.experiment == ExperimentKind::FlowModSuppression, "fig11 is suppression only");
    check(spec.ping_trials == e2e::pinned::kPingTrials &&
              spec.iperf_trials == e2e::pinned::kIperfTrials,
          "fig11 workload shape pinned");
    if (spec.attack_enabled && spec.attack_start == e2e::pinned::kFig11PaperStart) ++t5;
  }
  check(t5 == 3, "one t5 cell per controller");
  for (const auto& spec : fig11) {
    if (spec.attack_enabled) {
      check(spec.attack_start >= e2e::pinned::kFig11StartLo &&
                spec.attack_start <= e2e::pinned::kFig11StartHi,
            "fig11 arms before the pings");
    }
  }

  const auto flood = e2e::flood_grid(1);
  check(flood.size() == 1 + e2e::pinned::kFloodSeededStarts, "flood grid size");
  check(!flood.front().attack_enabled, "flood grid starts with its baseline");
  for (const auto& spec : flood) {
    check(spec.flood_flows == e2e::pinned::kFloodFlows && spec.table_capacity == 0 &&
              spec.topology == e2e::flood_topology(),
          "flood shape pinned");
    if (spec.attack_enabled) {
      check(spec.attack_start > e2e::pinned::kFloodStartLo &&
                spec.attack_start <= e2e::pinned::kFloodStartHi,
            "flood start in range");
    }
  }

  const auto campaign = e2e::campaign_grid(1);
  std::size_t table2 = 0;
  for (const auto& spec : campaign) {
    if (spec.experiment == ExperimentKind::ConnectionInterruption) ++table2;
  }
  check(table2 == 3 * 2 * (1 + e2e::pinned::kTable2SeededStarts), "campaign Table II part");
  check(campaign.size() - table2 == 3 * (2 + e2e::pinned::kFig11SeededStarts),
        "campaign Fig. 11 part");

  const auto baselines = e2e::baseline_index(fig11);
  for (std::size_t i = 0; i < fig11.size(); ++i) {
    check(baselines[i] >= 0 && !fig11[baselines[i]].attack_enabled &&
              fig11[baselines[i]].controller == fig11[i].controller,
          "every fig11 cell has its controller's baseline");
  }
}

void test_loop_free() {
  using attain::topo::TopologySpec;
  check(!throws([] { e2e::require_loop_free(TopologySpec::leaf_spine(1, 64, 32)); }),
        "single-spine leaf-spine is loop-free");
  check(throws([] { e2e::require_loop_free(TopologySpec::leaf_spine(2, 4, 4)); }),
        "two spines rejected");
  check(throws([] { e2e::require_loop_free(TopologySpec::fat_tree(4)); }), "fat-tree(4) rejected");
  check(throws([] { e2e::require_loop_free(TopologySpec::enterprise()); }),
        "enterprise rejected for the flood");
}

}  // namespace

int main() {
  test_percentile();
  test_dispatch();
  test_tally();
  test_starts();
  test_grids();
  test_loop_free();
  if (g_failures > 0) {
    std::fprintf(stderr, "%d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("e2e_selftest: all checks passed\n");
  return 0;
}
