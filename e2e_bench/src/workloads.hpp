// The benchmark's three workloads: their pinned shapes, the seed -> grid
// generation, and the output checks every timed cell must pass. Every axis
// is set explicitly here (controller, topology, table capacity, flood
// shape, Options, worker and tail counts) so a later change to a
// GridBuilder or runner default cannot silently change what is measured;
// grid_digest() of the generated grid is printed with every run to prove
// it.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "scenario/experiment.hpp"
#include "scenario/run.hpp"

namespace e2e {

enum class Workload { Fig11, Flood, Campaign };

std::optional<Workload> parse_workload(const std::string& name);
std::string to_string(Workload workload);

namespace pinned {

using attain::kMillisecond;
using attain::kSecond;
using attain::SimTime;

// fig11: the paper's Fig. 11 suppression campaign on the enterprise net,
// {Floodlight, POX, Ryu} x (baseline + the paper's t5 cell + seeded starts).
// A cell's row depends only on whether the injector arms before or after
// the pings begin at t=30 s. Seeded starts are drawn from (5 s, 30 s], the
// paper's side: every seed then runs the same cell shapes, and the grid's
// median cell is a Ryu attack cell well inside its cluster. Arming after
// the pings gives Ryu a second shape (full iperf, 1.2 M events) whose cost
// moved 1.6x with the host's speed and, sitting at the median, moved
// cell_ms_p50 by 50% between runs (NOTES.md).
inline constexpr unsigned kPingTrials = 20;
inline constexpr unsigned kIperfTrials = 5;
inline constexpr SimTime kIperfDuration = 3 * kSecond;
inline constexpr SimTime kIperfGap = 2 * kSecond;
inline constexpr SimTime kFig11PaperStart = 5 * kSecond;
inline constexpr SimTime kFig11StartLo = 5 * kSecond;
inline constexpr SimTime kFig11StartHi = 30 * kSecond;  // the pings start here
inline constexpr std::size_t kFig11SeededStarts = 4;

// flood: a PACKET_IN flood from every leaf of a loop-free leaf-spine.
// Starts are drawn from (3.25 s, 5.75 s], the part of [3 s, 8 s] where every
// cell has the same shape (NOTES.md): starts before ~3.1 s race the probe's
// first ARP (60% probe loss), starts from ~5.9 s on often peak at 69 MiB
// instead of 55 MiB, and starts in ~6.85-7.05 s run 2-3x the events.
inline constexpr std::uint32_t kFloodSpines = 1;
inline constexpr std::uint32_t kFloodLeaves = 64;
inline constexpr std::uint32_t kFloodHostsPerLeaf = 32;
inline constexpr std::uint32_t kFloodFlows = 512;
inline constexpr SimTime kFloodDuration = 10 * kSecond;
inline constexpr SimTime kFloodBatch = 100 * kMillisecond;
inline constexpr std::uint32_t kFloodTableCapacity = 0;  // unlimited
inline constexpr SimTime kFloodStartLo = 3250 * kMillisecond;
inline constexpr SimTime kFloodStartHi = 5750 * kMillisecond;
inline constexpr std::size_t kFloodSeededStarts = 7;

// campaign: the Fig. 11 campaign grid plus the Table II grid over seeded
// arm times, on a DistributedRunner with journal and warm start.
inline constexpr SimTime kTable2PaperStart = 10 * kSecond;
/// Arm times before the switches connect at t=12 s, so sigma1 still sees
/// the (c1, s2) connection set-up.
inline constexpr SimTime kTable2StartLo = 1 * kSecond;
inline constexpr SimTime kTable2StartHi = 11 * kSecond;
inline constexpr std::size_t kTable2SeededStarts = 9;
inline constexpr unsigned kWorkers = 2;
inline constexpr int kWarmTailsPerWorker = 1;
inline constexpr std::size_t kInFlightPerWorker = 2;

/// Cooperative per-cell wall budget; a slower cell counts as failed.
inline constexpr double kCellTimeoutSeconds = 60.0;

}  // namespace pinned

/// Run options every cell carries (the library defaults, written out).
attain::scenario::Options pinned_options();

/// The flood topology, and the check that rejects fabrics with loops
/// (multipath fabrics storm under flood-based learning controllers).
attain::topo::TopologySpec flood_topology();
void require_loop_free(const attain::topo::TopologySpec& topology);

std::vector<attain::scenario::RunSpec> fig11_grid(std::uint64_t seed);
std::vector<attain::scenario::RunSpec> flood_grid(std::uint64_t seed);
std::vector<attain::scenario::RunSpec> campaign_grid(std::uint64_t seed);
std::vector<attain::scenario::RunSpec> make_grid(Workload workload, std::uint64_t seed);

/// Host-bearing (flood-source) switches of a topology.
std::size_t edge_switch_count(const attain::topo::SystemModel& model);

/// Per-cell checks beyond the digest comparison. `baseline` is the result
/// of the same controller's baseline cell (suppression cells only);
/// `edge_switches` is the flood topology's source count (volumetric cells
/// only). Returns an empty string when the cell passes, else the reason.
std::string check_cell(const attain::scenario::RunSpec& spec,
                       const attain::scenario::RunResult& result,
                       const attain::scenario::RunResult* baseline, std::size_t edge_switches);

/// Index of each cell's same-controller baseline in `grid` (suppression
/// cells; -1 where there is none).
std::vector<long> baseline_index(const std::vector<attain::scenario::RunSpec>& grid);

}  // namespace e2e
