// OpenFlow 1.0 software switch (the Open vSwitch substitute). Implements
// the data-plane pipeline (flow-table lookup, buffering, PACKET_IN), the
// switch side of the OpenFlow channel (handshake, echo liveness, FLOW_MOD /
// PACKET_OUT / STATS handling), and the two disconnection policies the
// Table II experiment turns on: fail-safe (standalone L2 learning) and
// fail-secure (drop on table miss).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>

#include "chan/envelope.hpp"
#include "common/bytes.hpp"
#include "common/types.hpp"
#include "ofp/codec.hpp"
#include "ofp/messages.hpp"
#include "packet/packet.hpp"
#include "sim/scheduler.hpp"
#include "swsim/flow_table.hpp"

namespace attain::swsim {

struct SwitchConfig {
  std::string name{"s?"};
  std::uint64_t dpid{1};
  std::uint16_t num_ports{4};
  bool fail_secure{false};
  std::uint32_t buffer_capacity{256};
  std::uint16_t miss_send_len{128};
  /// Flow-table entry cap (0 = unlimited). A FLOW_MOD ADD against a full
  /// table draws an OFPET_FLOW_MOD_FAILED / ALL_TABLES_FULL error — the
  /// table-overflow attack's observable.
  std::uint32_t table_capacity{0};
  /// Echo liveness: a request every `echo_interval`; the connection is
  /// declared dead after `echo_miss_limit` consecutive unanswered echoes.
  SimTime echo_interval{5 * kSecond};
  unsigned echo_miss_limit{2};
  /// Flow-expiry scan period.
  SimTime expiry_interval{1 * kSecond};
};

struct SwitchCounters {
  std::uint64_t packets_in{0};          // data-plane packets received
  std::uint64_t packets_forwarded{0};   // data-plane packets emitted
  std::uint64_t table_misses{0};
  std::uint64_t miss_drops{0};          // misses dropped (fail-secure or buffer exhaustion)
  std::uint64_t packet_in_sent{0};
  std::uint64_t flow_mods_applied{0};
  std::uint64_t flow_mods_rejected{0};  // ADDs refused by a full flow table
  std::uint64_t packet_outs_applied{0};
  std::uint64_t flow_removed_sent{0};
  std::uint64_t echo_requests_sent{0};
  std::uint64_t control_rx{0};
  std::uint64_t control_tx{0};
  std::uint64_t decode_errors{0};       // malformed (e.g. fuzzed) control frames
  std::uint64_t standalone_forwards{0}; // packets forwarded by fail-safe fallback
};

/// The switch's view of its controller connection.
enum class ChannelState : std::uint8_t {
  Disconnected,   // no transport
  HandshakePending,
  Connected,      // HELLO + FEATURES exchange complete, echoes healthy
};

class OpenFlowSwitch {
 public:
  /// A PACKET_IN buffer the controller has not referenced this long is
  /// dropped at the next expiry tick.
  static constexpr SimTime kBufferTtl = 10 * kSecond;

  /// `send_control` transmits control-channel envelopes toward the
  /// controller (through the injector proxy in an ATTAIN deployment);
  /// `send_packet(port, pkt)` emits a data-plane frame.
  OpenFlowSwitch(sim::Scheduler& sched, SwitchConfig config);

  void set_control_sender(chan::EnvelopeSink send_control);
  void set_packet_sender(std::function<void(std::uint16_t, pkt::Packet)> send_packet);

  /// Starts the OpenFlow channel: sends HELLO and begins echo liveness.
  void connect();

  /// Delivers a control-channel envelope from the controller side. An
  /// unparseable frame draws a BadRequest error reply.
  void on_control_envelope(chan::Envelope&& envelope);

  /// Delivers a data-plane frame arriving on `port`.
  void on_packet(std::uint16_t port, pkt::Packet packet);

  /// Administratively raises/lowers a port (models link failure at this
  /// end). Lowering drops all egress on the port and emits a PORT_STATUS
  /// (reason Modify, OFPPS_LINK_DOWN) to the controller; raising clears
  /// the state and notifies likewise. Ingress is governed by the peer.
  void set_port_up(std::uint16_t port, bool up);
  bool port_up(std::uint16_t port) const { return !down_ports_.contains(port); }

  const SwitchCounters& counters() const { return counters_; }
  const FlowTable& flow_table() const { return table_; }
  ChannelState channel_state() const { return state_; }
  const SwitchConfig& config() const { return config_; }
  /// Re-targets the fail mode at runtime. The bit is only consulted once
  /// the channel leaves Connected, so flipping it while connected is
  /// invisible to the simulation — scenario warm-start forking relies on
  /// this to apply the Table II fail-mode knob at the fork point.
  void set_fail_secure(bool v) { config_.fail_secure = v; }
  bool in_standalone_mode() const;

 private:
  void handle_message(const ofp::Message& msg);
  void handle_flow_mod(std::uint32_t xid, const ofp::FlowMod& mod);
  void handle_packet_out(const ofp::PacketOut& out);
  void handle_stats_request(std::uint32_t xid, const ofp::StatsRequest& req);
  void apply_actions(const ofp::ActionList& actions, pkt::Packet packet, std::uint16_t in_port);
  void output_packet(std::uint16_t out_port, const pkt::Packet& packet, std::uint16_t in_port);
  void flood(const pkt::Packet& packet, std::uint16_t in_port);
  void table_miss(const pkt::Packet& packet, std::uint16_t in_port);
  void standalone_forward(const pkt::Packet& packet, std::uint16_t in_port);
  void send_message(ofp::Message msg);
  void send_flow_removed(const ExpiredEntry& expired);
  void schedule_echo();
  void schedule_expiry();
  void on_echo_timer();
  void mark_disconnected();
  std::uint32_t next_xid() { return xid_++; }

  sim::Scheduler& sched_;
  SwitchConfig config_;
  FlowTable table_;
  SwitchCounters counters_;

  chan::EnvelopeSink send_control_;
  std::function<void(std::uint16_t, pkt::Packet)> send_packet_;

  ChannelState state_{ChannelState::Disconnected};
  std::uint32_t xid_{1};
  unsigned echo_misses_{0};
  bool echo_outstanding_{false};

  // PACKET_IN buffer pool. Entries the controller never references (e.g.
  // consumed LLDP probes) age out so the pool cannot leak full. Keyed by
  // buffer id, which grows with buffered_at: the oldest entry is first.
  struct Buffered {
    pkt::Packet packet;
    std::uint16_t in_port;
    SimTime buffered_at{0};
  };
  mem::map<std::uint32_t, Buffered> buffers_;
  std::uint32_t next_buffer_id_{1};

  // Standalone (fail-safe) learning table: MAC -> port.
  mem::map<std::uint64_t, std::uint16_t> standalone_macs_;

  // Administratively/link-down ports (egress suppressed).
  std::set<std::uint16_t> down_ports_;
};

}  // namespace attain::swsim
