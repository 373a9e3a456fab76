// The batched message pipeline's acceptance harness, in two parts, both on
// the fat-tree(4) PACKET_IN-flood cell's workload shape:
//
//  1. Per-message flood encode (gate: >= 5x) — producing the i-th flood
//     PACKET_IN wire: build spoofed frame + pkt::encode + PacketIn +
//     full ofp::encode, vs FrameStamper + StampedTemplate patching. A
//     sampled differential pass re-checks stamped bytes == full-codec
//     bytes outside the timed loops.
//
//  2. The whole BM_VolumetricCell-shaped cell (timing recorded, not
//     gated) — one scenario::run(). Its result bytes are pinned by the
//     golden corpus (tests/golden/pipeline_cell.json).
//
// `--json <path>` writes a bench_json.hpp wrapper document whose
// *_seconds metrics feed the tools/bench_baseline.py regression gate
// (committed baseline: BENCH_pipeline.json).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench_json.hpp"
#include "ofp/codec.hpp"
#include "ofp/stamp.hpp"
#include "packet/codec.hpp"
#include "packet/stamp.hpp"
#include "scenario/run.hpp"
#include "topo/generators.hpp"

using namespace attain;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

unsigned env_or(const char* name, unsigned fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr) return fallback;
  const unsigned parsed = static_cast<unsigned>(std::strtoul(value, nullptr, 10));
  return parsed > 0 ? parsed : fallback;
}

// ---------------------------------------------------------------------------
// Shared flood shape: the spoofed TCP SYN stream the volumetric generators
// emit (experiment.cpp's emit_flood_batch).
// ---------------------------------------------------------------------------

pkt::Packet flood_packet(std::uint64_t f) {
  pkt::TcpHeader tcp;
  tcp.src_port = static_cast<std::uint16_t>(40000 + (f & 0x3fff));
  tcp.dst_port = 80;
  tcp.flags = pkt::kTcpSyn;
  return pkt::make_tcp(pkt::MacAddress::from_u64(0x0aad00000000ULL | f),
                       pkt::MacAddress::from_u64(0x22),
                       pkt::Ipv4Address{static_cast<std::uint32_t>(0xc0000000u + f)},
                       pkt::Ipv4Address{0x0a000202}, tcp, 0, 0);
}

pkt::FrameStamper make_flood_stamper() {
  pkt::TcpHeader tcp;
  tcp.src_port = 40000;
  tcp.dst_port = 80;
  tcp.flags = pkt::kTcpSyn;
  return pkt::FrameStamper(pkt::make_tcp(pkt::MacAddress::from_u64(0x0aad00000000ULL),
                                         pkt::MacAddress::from_u64(0x22),
                                         pkt::Ipv4Address{0xc0000000u},
                                         pkt::Ipv4Address{0x0a000202}, tcp, 0, 0));
}

// ---------------------------------------------------------------------------
// Part 1: per-message flood encode, full codec vs stamped.
// ---------------------------------------------------------------------------

struct EncodeTiming {
  double full_seconds{0.0};
  double stamped_seconds{0.0};
  bool byte_identical{true};
};

Bytes encode_full_instance(std::uint64_t f) {
  const pkt::Packet p = flood_packet(f);
  const Bytes frame = pkt::encode(p);
  ofp::PacketIn pin;
  pin.in_port = 3;
  pin.total_len = static_cast<std::uint16_t>(frame.size());
  pin.buffer_id = static_cast<std::uint32_t>(f);
  pin.data = frame;
  return ofp::encode(ofp::make_message(static_cast<std::uint32_t>(f), std::move(pin)));
}

EncodeTiming time_flood_encode(std::size_t instances) {
  EncodeTiming timing;
  std::uint64_t sink_full = 0;
  std::uint64_t sink_stamped = 0;

  // Best-of-3 on both sides: single-shot loops on a busy single-core
  // machine are noisy enough to wobble the gated ratio.
  for (int rep = 0; rep < 5; ++rep) {
    sink_full = 0;
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t f = 0; f < instances; ++f) {
      const Bytes wire = encode_full_instance(f);
      sink_full += wire[wire.size() - 1] + wire.size();
    }
    const double s = seconds_since(start);
    if (rep == 0 || s < timing.full_seconds) timing.full_seconds = s;
  }

  pkt::FrameStamper stamper = make_flood_stamper();
  ofp::PacketIn proto;
  proto.in_port = 3;
  proto.total_len = static_cast<std::uint16_t>(stamper.wire().size());
  proto.data.assign(stamper.wire().size(), 0);
  ofp::StampedTemplate tmpl(ofp::make_message(0, std::move(proto)));
  if (!stamper.can_stamp_src_mac() || !stamper.can_stamp_src_ip() ||
      !stamper.can_stamp_src_port() || !tmpl.can_stamp_xid() || !tmpl.can_stamp_buffer_id() ||
      !tmpl.can_stamp_data(stamper.wire().size())) {
    std::fprintf(stderr, "flood prototype unexpectedly unstampable\n");
    timing.byte_identical = false;
    return timing;
  }

  const auto emit_stamped = [&](std::uint64_t f) {
    stamper.set_src_mac(pkt::MacAddress::from_u64(0x0aad00000000ULL | f));
    stamper.set_src_ip(pkt::Ipv4Address{static_cast<std::uint32_t>(0xc0000000u + f)});
    stamper.set_src_port(static_cast<std::uint16_t>(40000 + (f & 0x3fff)));
    tmpl.set_xid(static_cast<std::uint32_t>(f));
    tmpl.set_buffer_id(static_cast<std::uint32_t>(f));
    tmpl.set_data(stamper.wire());
    return tmpl.emit_wire();
  };

  for (int rep = 0; rep < 5; ++rep) {
    sink_stamped = 0;
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t f = 0; f < instances; ++f) {
      const Bytes wire = emit_stamped(f);
      sink_stamped += wire[wire.size() - 1] + wire.size();
    }
    const double s = seconds_since(start);
    if (rep == 0 || s < timing.stamped_seconds) timing.stamped_seconds = s;
  }

  // Differential pass outside the timed loops: stamped bytes must equal the
  // full-codec build for a spread of instances.
  timing.byte_identical = sink_full == sink_stamped;
  for (std::size_t f = 0; f < instances; f += 97) {
    if (emit_stamped(f) != encode_full_instance(f)) {
      timing.byte_identical = false;
      break;
    }
  }
  return timing;
}

// ---------------------------------------------------------------------------
// Part 2: the whole BM_VolumetricCell-shaped cell.
// ---------------------------------------------------------------------------

scenario::RunSpec flood_cell() {
  scenario::RunSpec spec;
  spec.experiment = scenario::ExperimentKind::Volumetric;
  spec.volumetric = scenario::VolumetricKind::PacketInFlood;
  spec.controller = scenario::ControllerKind::Pox;
  spec.topology = topo::TopologySpec::fat_tree(4);
  // BM_VolumetricCell's shape; overridable for local exploration (the
  // committed BENCH_pipeline.json baseline uses the defaults).
  spec.flood_flows = env_or("ATTAIN_BENCH_FLOOD_FLOWS", 64);
  spec.flood_duration = env_or("ATTAIN_BENCH_FLOOD_SECONDS", 2) * kSecond;
  spec.flood_batch = env_or("ATTAIN_BENCH_FLOOD_BATCH_MS", 500) * kMillisecond;
  return spec;
}

struct CellTiming {
  double seconds{0.0};
  std::string json;
};

CellTiming time_cell(const scenario::RunSpec& spec) {
  const auto start = std::chrono::steady_clock::now();
  const scenario::RunResultPtr result = scenario::run(spec);
  CellTiming timing;
  timing.seconds = seconds_since(start);
  timing.json = result->to_json();
  return timing;
}

}  // namespace

int main(int argc, char** argv) {
  constexpr std::size_t kEncodeInstances = 1'000'000;

  std::printf("Batched message pipeline — fat-tree(4) PACKET_IN flood shapes\n");

  const EncodeTiming encode = time_flood_encode(kEncodeInstances);
  const double encode_speedup =
      encode.stamped_seconds > 0.0 ? encode.full_seconds / encode.stamped_seconds : 0.0;
  std::printf("\nper-message flood encode (%zu instances, frame + PACKET_IN):\n",
              kEncodeInstances);
  std::printf("  full codec: %.3f s   stamped: %.3f s   speedup: %.2fx (gate: >= 5x)\n",
              encode.full_seconds, encode.stamped_seconds, encode_speedup);
  std::printf("  stamped output byte-identical: %s\n",
              encode.byte_identical ? "yes" : "NO — BUG");

  const scenario::RunSpec spec = flood_cell();
  std::printf("\nwhole cell (%s, %u flows, %.0f s flood):\n", spec.id().c_str(),
              spec.flood_flows, static_cast<double>(spec.flood_duration) / kSecond);
  const CellTiming cell_batched = time_cell(spec);
  std::printf("  %.3f s (recorded, not gated)\n", cell_batched.seconds);

  if (const std::string path = bench::json_out_path(argc, argv); !path.empty()) {
    const bench::Metrics metrics = {
        {"encode_full_seconds", encode.full_seconds},
        {"encode_stamped_seconds", encode.stamped_seconds},
        {"cell_batched_seconds", cell_batched.seconds},
        {"encode_speedup", encode_speedup},
    };
    if (!bench::write_bench_json(path, "batch_pipeline", "fat_tree4_packet_in_flood",
                                 cell_batched.json, metrics)) {
      std::fprintf(stderr, "failed to write %s\n", path.c_str());
      return 1;
    }
    std::printf("\nwrote %s\n", path.c_str());
  }

  bool pass = true;
  if (!encode.byte_identical) {
    std::fprintf(stderr, "FAIL: stamped encode output differs from full codec\n");
    pass = false;
  }
  if (encode_speedup < 5.0) {
    std::fprintf(stderr, "FAIL: encode speedup %.2fx below the 5x gate\n", encode_speedup);
    pass = false;
  }
  std::printf("\n%s\n", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
