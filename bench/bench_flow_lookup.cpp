// Data-plane fast-path microbenchmark: the two-tier classifier
// (swsim::FlowTable) against the seed's linear scan (swsim::NaiveFlowTable)
// on identical tables and packet streams.
//
// Three population regimes, each at 10/100/1k/10k entries:
//   * exact-heavy:    all entries exact — tier-1 hash hits, the OVS-style
//                     microflow case (PACKET_IN-driven reactive rules);
//   * wildcard-heavy: all entries wildcarded across 8 distinct masks —
//                     tier-2 probes one hash lookup per mask instead of
//                     one match per entry;
//   * mixed:          half exact, half wildcard.
// Plus an expiry-tick regime: a table of timed entries swept with expire()
// when nothing is due — the timer wheel's O(ticks elapsed) against the
// naive scan's O(entries).
//
// The timed loop includes pkt::FlowKey extraction for the fast table (one
// extraction per packet, exactly what switch ingress pays), so the speedup
// reported is end-to-end per packet event, not just the probe.
//
// tools/bench_baseline.py turns `--benchmark_format=json` output of this
// binary into the committed BENCH_flowtable.json baseline; CI re-runs it
// with --benchmark_min_time=0.01x and fails on >5x regression.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "ofp/match.hpp"
#include "support/naive_flow_table.hpp"
#include "swsim/flow_table.hpp"

using namespace attain;
using namespace attain::swsim;

namespace {

// Distinct mask templates for the wildcard regimes: the classifier's tier-2
// cost is O(distinct masks), so keep this realistic (a controller installs
// a handful of rule shapes, not one mask per rule).
constexpr std::uint32_t kMaskTemplates[] = {
    ofp::wc::kTpSrc,
    ofp::wc::kTpDst,
    ofp::wc::kTpSrc | ofp::wc::kTpDst,
    ofp::wc::kNwTos,
    ofp::wc::kDlVlan | ofp::wc::kDlVlanPcp,
    ofp::wc::kTpSrc | ofp::wc::kNwTos,
    ofp::wc::kTpDst | ofp::wc::kDlVlan,
    ofp::wc::kNwTos | ofp::wc::kDlVlanPcp,
};

/// The i-th workload packet: distinct (macs, ips, ports) per index so every
/// packet owns exactly one table entry in all regimes.
pkt::Packet workload_packet(std::size_t i) {
  pkt::TcpHeader tcp;
  tcp.src_port = static_cast<std::uint16_t>(1024 + (i & 0x3ff));
  tcp.dst_port = static_cast<std::uint16_t>(80 + (i >> 10));
  return pkt::make_tcp(pkt::MacAddress::from_u64(1 + i), pkt::MacAddress::from_u64(1 + (i << 1)),
                       pkt::Ipv4Address{static_cast<std::uint32_t>(0x0a000001 + i)},
                       pkt::Ipv4Address{static_cast<std::uint32_t>(0x0a800001 + i)}, tcp, 200, 0);
}

enum class Regime { ExactHeavy, WildcardHeavy, Mixed };

template <typename Table>
std::vector<pkt::Packet> populate(Table& table, std::size_t n, Regime regime) {
  std::vector<pkt::Packet> packets;
  packets.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    packets.push_back(workload_packet(i));
    ofp::FlowMod mod;
    mod.match = ofp::Match::from_packet(packets.back(), 1);
    const bool wildcard = regime == Regime::WildcardHeavy ||
                          (regime == Regime::Mixed && (i & 1) != 0);
    if (wildcard) {
      mod.match.wildcards |= kMaskTemplates[i % (sizeof(kMaskTemplates) /
                                                 sizeof(kMaskTemplates[0]))];
    }
    mod.command = ofp::FlowModCommand::Add;
    mod.priority = 100;
    mod.cookie = i;
    mod.actions = ofp::output_to(2);
    table.apply(mod, 0);
  }
  return packets;
}

template <typename Table>
void lookup_loop(benchmark::State& state, Regime regime) {
  Table table;
  const std::vector<pkt::Packet> packets =
      populate(table, static_cast<std::size_t>(state.range(0)), regime);
  std::size_t i = 0;
  SimTime now = 0;
  for (auto _ : state) {
    const pkt::Packet& p = packets[i];
    if (++i == packets.size()) i = 0;
    now += 10;
    benchmark::DoNotOptimize(table.match_packet(p, 1, now, p.wire_size()));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_ExactHeavy_Fast(benchmark::State& state) { lookup_loop<FlowTable>(state, Regime::ExactHeavy); }
void BM_ExactHeavy_Naive(benchmark::State& state) { lookup_loop<NaiveFlowTable>(state, Regime::ExactHeavy); }
void BM_WildcardHeavy_Fast(benchmark::State& state) { lookup_loop<FlowTable>(state, Regime::WildcardHeavy); }
void BM_WildcardHeavy_Naive(benchmark::State& state) { lookup_loop<NaiveFlowTable>(state, Regime::WildcardHeavy); }
void BM_Mixed_Fast(benchmark::State& state) { lookup_loop<FlowTable>(state, Regime::Mixed); }
void BM_Mixed_Naive(benchmark::State& state) { lookup_loop<NaiveFlowTable>(state, Regime::Mixed); }

template <typename Table>
void expiry_loop(benchmark::State& state) {
  Table table;
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  for (std::size_t i = 0; i < n; ++i) {
    ofp::FlowMod mod;
    mod.match = ofp::Match::from_packet(workload_packet(i), 1);
    mod.command = ofp::FlowModCommand::Add;
    mod.priority = 100;
    mod.hard_timeout = 36000;  // far enough that no tick in the loop fires
    mod.actions = ofp::output_to(2);
    table.apply(mod, 0);
  }
  SimTime now = 0;
  for (auto _ : state) {
    now += kMillisecond;  // the switch's periodic expiry cadence
    benchmark::DoNotOptimize(table.expire(now));
  }
}

void BM_ExpiryTick_Fast(benchmark::State& state) { expiry_loop<FlowTable>(state); }
void BM_ExpiryTick_Naive(benchmark::State& state) { expiry_loop<NaiveFlowTable>(state); }

void table_sizes(benchmark::internal::Benchmark* b) {
  b->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);
}

/// The fast path additionally runs at enterprise-flood scale (the sizes the
/// volumetric experiments reach). The naive table stays at 10k: populating
/// it is O(n²) in the ADD-duplicate scan, so 1M entries would take hours —
/// and the comparison point it exists for is already made by 10k.
void fast_table_sizes(benchmark::internal::Benchmark* b) {
  b->Arg(10)->Arg(100)->Arg(1000)->Arg(10000)->Arg(100000)->Arg(1000000);
}

BENCHMARK(BM_ExactHeavy_Fast)->Apply(fast_table_sizes);
BENCHMARK(BM_ExactHeavy_Naive)->Apply(table_sizes);
BENCHMARK(BM_WildcardHeavy_Fast)->Apply(fast_table_sizes);
BENCHMARK(BM_WildcardHeavy_Naive)->Apply(table_sizes);
BENCHMARK(BM_Mixed_Fast)->Apply(fast_table_sizes);
BENCHMARK(BM_Mixed_Naive)->Apply(table_sizes);
BENCHMARK(BM_ExpiryTick_Fast)->Apply(fast_table_sizes);
BENCHMARK(BM_ExpiryTick_Naive)->Apply(table_sizes);

}  // namespace

BENCHMARK_MAIN();
