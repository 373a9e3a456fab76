// Controller-side OpenFlow runtime: connection bookkeeping, handshake,
// echo handling, and a single-threaded processing queue that models the
// controller's per-message CPU cost (the dominant bottleneck for the
// Python controllers in the paper's testbed — it is what turns FLOW_MOD
// suppression into a throughput collapse rather than a mere latency bump).
//
// Concrete network applications (ctl/floodlight.hpp, ctl/pox.hpp,
// ctl/ryu.hpp) subclass Controller and implement the packet-in hook.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "chan/envelope.hpp"
#include "common/bytes.hpp"
#include "common/types.hpp"
#include "ofp/codec.hpp"
#include "ofp/messages.hpp"
#include "sim/lane.hpp"
#include "sim/scheduler.hpp"

namespace attain::ctl {

/// Handle for one switch connection from the controller's point of view.
using ConnHandle = std::size_t;

struct ControllerCounters {
  std::uint64_t messages_received{0};
  std::uint64_t messages_sent{0};
  std::uint64_t packet_ins{0};
  std::uint64_t flow_mods_sent{0};
  std::uint64_t packet_outs_sent{0};
  std::uint64_t decode_errors{0};
  std::uint64_t switches_connected{0};
};

class Controller {
 public:
  /// `processing_delay` is the modelled single-threaded CPU time per
  /// control message (0 = infinitely fast controller).
  Controller(sim::Scheduler& sched, std::string name, SimTime processing_delay);
  virtual ~Controller() = default;

  Controller(const Controller&) = delete;
  Controller& operator=(const Controller&) = delete;

  /// Registers a switch connection; `send` transmits control-channel
  /// envelopes toward the switch (through the injector proxy in an ATTAIN
  /// deployment).
  ConnHandle add_connection(chan::EnvelopeSink send);

  /// Delivers an envelope arriving from connection `conn`. The message is
  /// queued behind the controller's processing backlog: a FIFO lane keyed
  /// at the instant its processing completes, so one scheduler event serves
  /// however many messages wait.
  void on_envelope(ConnHandle conn, chan::Envelope&& envelope);

  const ControllerCounters& counters() const { return counters_; }
  const std::string& name() const { return name_; }
  std::size_t connection_count() const { return conns_.size(); }
  /// Datapath id learned during the handshake; 0 until FEATURES_REPLY.
  std::uint64_t dpid_of(ConnHandle conn) const { return conns_.at(conn).dpid; }
  bool handshake_complete(ConnHandle conn) const { return conns_.at(conn).ready; }
  /// Physical ports advertised in the FEATURES_REPLY (empty until then).
  const std::vector<ofp::PhyPort>& ports_of(ConnHandle conn) const {
    return conns_.at(conn).ports;
  }

  /// Statistics collection (the paper's monitoring workflows): the most
  /// recent STATS_REPLY is retained per connection for inspection.
  const std::optional<ofp::StatsReply>& last_stats_reply(ConnHandle conn) const {
    return conns_.at(conn).last_stats;
  }
  std::uint64_t stats_replies_received() const { return stats_replies_received_; }

 protected:
  /// Application hooks.
  virtual void on_switch_ready(ConnHandle conn) { (void)conn; }
  virtual void on_packet_in(ConnHandle conn, const ofp::PacketIn& pin) = 0;
  virtual void on_flow_removed(ConnHandle conn, const ofp::FlowRemoved& removed) {
    (void)conn;
    (void)removed;
  }
  virtual void on_port_status(ConnHandle conn, const ofp::PortStatus& status) {
    (void)conn;
    (void)status;
  }
  virtual void on_error(ConnHandle conn, const ofp::Error& error) {
    (void)conn;
    (void)error;
  }
  virtual void on_stats_reply(ConnHandle conn, const ofp::StatsReply& reply) {
    (void)conn;
    (void)reply;
  }

  /// Sends a message on a connection (counted; it travels typed).
  void send(ConnHandle conn, ofp::Message msg);
  std::uint32_t next_xid() { return xid_++; }

  sim::Scheduler& sched() { return sched_; }

 private:
  struct Conn {
    chan::EnvelopeSink send;
    std::uint64_t dpid{0};
    bool ready{false};
    std::vector<ofp::PhyPort> ports;
    std::optional<ofp::StatsReply> last_stats;
  };

  /// A message waiting in the processing backlog.
  struct Queued {
    ConnHandle conn;
    chan::Envelope envelope;
  };

  void process(ConnHandle conn, chan::Envelope& envelope);
  void handle(ConnHandle conn, const ofp::Message& msg);

  sim::Scheduler& sched_;
  std::string name_;
  SimTime processing_delay_;
  SimTime busy_until_{0};
  sim::Lane<Queued> backlog_;
  std::vector<Conn> conns_;
  ControllerCounters counters_;
  std::uint32_t xid_{1};
  std::uint64_t stats_replies_received_{0};
};

}  // namespace attain::ctl
