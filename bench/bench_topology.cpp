// Topology-generator and system-model scalability microbenchmarks: how the
// hash-indexed topo::SystemModel and the parametric generators behave from
// the 6-host enterprise net up to the ~100k-host fabrics the volumetric
// sweeps target.
//
// Regimes:
//   * Build:        full generate-and-validate of enterprise, fat-tree(k)
//                   for k in {4, 8, 16, 32, 48} (16 → 1024 hosts, 48 →
//                   27648 hosts), and leaf-spine fabrics up to ~100k hosts —
//                   exercises the O(1) adders and the index-backed
//                   validate() (the seed's linear scans made this O(n²));
//   * HostLookup:   host_by_ip over every host of a built model — the
//                   address indexes at 100k+ entries;
//   * ShortestPath: BFS across a fat-tree (worst-case inter-pod pair);
//   * TestbedBuild: wiring one scenario::Testbed (hosts, switches, data
//                   pipes, per-switch port tables, control channels) on
//                   leaf-spine(1, L, 32) for L in {16, 64}; the model is
//                   built outside the timed region. O(ports) wiring keeps
//                   the L=64 row near 4x the L=16 row;
//   * VolumetricCell: one complete fat-tree(4) PACKET_IN-flood scenario
//                   cell through scenario::run() — the end-to-end number
//                   the acceptance sweep depends on.
//
// tools/bench_baseline.py turns --benchmark_format=json output of this
// binary (merged with bench_flow_lookup's, which carries the 100k/1M-entry
// fast-path results) into the committed BENCH_topology.json baseline; CI
// re-runs both with --benchmark_min_time=0.01x and fails on >5x regression.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <optional>

#include "scenario/experiment.hpp"
#include "scenario/run.hpp"
#include "topo/generators.hpp"

using namespace attain;

namespace {

topo::TopologySpec spec_for(std::int64_t selector) {
  // Encoded args: 0 = enterprise; k = fat-tree(k); 1000+n = leaf-spine with
  // n spines, 4n leaves, 64 hosts/leaf (256n hosts: n=64 → 16384 hosts,
  // n=400 → 102400 hosts).
  if (selector == 0) return topo::TopologySpec::enterprise();
  if (selector < 1000) return topo::TopologySpec::fat_tree(static_cast<std::uint32_t>(selector));
  const auto spines = static_cast<std::uint32_t>(selector - 1000);
  return topo::TopologySpec::leaf_spine(spines, 4 * spines, 64);
}

void BM_Build(benchmark::State& state) {
  const topo::TopologySpec spec = spec_for(state.range(0));
  std::size_t hosts = 0;
  for (auto _ : state) {
    topo::SystemModel model = topo::build_model(spec);
    hosts = model.hosts().size();
    benchmark::DoNotOptimize(model);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(hosts));
  state.SetLabel(spec.id());
}

void BM_HostLookup(benchmark::State& state) {
  const topo::SystemModel model = topo::build_model(spec_for(state.range(0)));
  const auto& hosts = model.hosts();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.host_by_ip(hosts[i].ip));
    if (++i == hosts.size()) i = 0;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_ShortestPath(benchmark::State& state) {
  const topo::SystemModel model =
      topo::build_model(topo::TopologySpec::fat_tree(static_cast<std::uint32_t>(state.range(0))));
  // First and last hosts live in the first and last pods: the full
  // edge → agg → core → agg → edge diameter.
  const EntityId src = model.require(model.hosts().front().name);
  const EntityId dst = model.require(model.hosts().back().name);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.shortest_path(src, dst));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_TestbedBuild(benchmark::State& state) {
  const topo::SystemModel model = topo::build_model(
      topo::TopologySpec::leaf_spine(1, static_cast<std::uint32_t>(state.range(0)), 32));
  std::optional<scenario::Testbed> bed;
  for (auto _ : state) {
    state.PauseTiming();
    topo::SystemModel copy = model;
    bed.reset();
    state.ResumeTiming();
    bed.emplace(std::move(copy));
    benchmark::DoNotOptimize(*bed);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(model.links().size()));
}

void BM_VolumetricCell(benchmark::State& state) {
  scenario::RunSpec spec;
  spec.experiment = scenario::ExperimentKind::Volumetric;
  spec.controller = scenario::ControllerKind::Pox;
  spec.attack_enabled = true;
  spec.volumetric = scenario::VolumetricKind::PacketInFlood;
  spec.topology = topo::TopologySpec::fat_tree(4);
  spec.flood_flows = 64;
  spec.flood_duration = 2 * kSecond;
  spec.flood_batch = 500 * kMillisecond;
  std::uint64_t events = 0;
  for (auto _ : state) {
    scenario::RunResultPtr result = scenario::run(spec);
    events = result->events_executed;
    benchmark::DoNotOptimize(result);
  }
  state.counters["sim_events"] = static_cast<double>(events);
}

BENCHMARK(BM_Build)->Arg(0)->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Arg(48)
    ->Arg(1064)->Arg(1400)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_HostLookup)->Arg(16)->Arg(48)->Arg(1400);
BENCHMARK(BM_ShortestPath)->Arg(4)->Arg(16)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_TestbedBuild)->Arg(16)->Arg(64)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_VolumetricCell)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
