// Per-layer replays for the traced run: small timed loops that call one
// module's public entry point on the workload's own message shapes (the
// Fig. 11 suppression attack, the flood's spoofed TCP SYN frame and its
// PACKET_IN, a flow table at the workload's entry count). Each figure is
// the median over repeated samples of nanoseconds (or microseconds) per
// call.
#pragma once

#include <cstddef>

namespace e2e {

struct ReplayMetrics {
  double dsl_compile_us{0.0};  // Testbed::compile_attack, Fig. 11 suppression source
  double lang_eval_ns{0.0};    // ProgramEvaluator over every rule, per envelope
  double ofp_encode_ns{0.0};   // ofp::encode of a flood-sized PACKET_IN
  double ofp_decode_ns{0.0};   // ofp::decode of the same frame
  double ofp_stamp_ns{0.0};    // ofp::StampedTemplate patch + emit
  double packet_stamp_ns{0.0}; // pkt::FrameStamper patch + emit
  double match_hit_ns{0.0};    // FlowTable::match_batch, installed keys
  double match_miss_ns{0.0};   // FlowTable::match_batch, fresh keys
};

/// Runs every replay; `match_entries` sizes the flow table.
ReplayMetrics run_replays(std::size_t match_entries);

}  // namespace e2e
