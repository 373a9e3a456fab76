// Floodlight `Forwarding` module reproduction, with its supporting
// services implemented the way the real controller implements them:
//
//   * link discovery — periodic LLDP probes PACKET_OUT'd on every switch
//     port; probes arriving back as PACKET_INs on a neighbouring switch
//     reveal a (switch, port) <-> (switch, port) link. No topology is fed
//     in from outside; the controller knows only what discovery tells it
//     (which is also what makes it vulnerable to LLDP link fabrication,
//     the §II attack reproduced in the link-fabrication tests/example);
//   * device manager — host attachment points learned from PACKET_INs
//     arriving on edge ports (ports with no discovered link);
//   * forwarding — known destinations get the whole shortest-path route
//     pushed at once: one FLOW_MOD per switch on the route, each with a
//     *full-tuple* match (in_port + L2 + L3 + L4), idle timeout 5 s, no
//     buffer reference; the triggering packet is released with a
//     PACKET_OUT at the PACKET_IN switch. Under FLOW_MOD suppression the
//     PACKET_OUT still flows, so Floodlight degrades but stays alive.
#pragma once

#include <map>

#include "common/arena.hpp"
#include "ctl/controller.hpp"
#include "packet/packet.hpp"

namespace attain::ctl {

class FloodlightForwarding : public Controller {
 public:
  static constexpr SimTime kDefaultProcessingDelay = 200;  // 0.2 ms (Java, faster than POX/Ryu)
  static constexpr std::uint16_t kIdleTimeout = 5;         // FLOWMOD_DEFAULT_IDLE_TIMEOUT
  static constexpr SimTime kLldpInterval = 2 * kSecond;    // discovery probe period

  explicit FloodlightForwarding(sim::Scheduler& sched,
                                SimTime processing_delay = kDefaultProcessingDelay)
      : Controller(sched, "floodlight.forwarding", processing_delay) {}

  /// A (datapath, port) endpoint in the discovered topology.
  struct PortRef {
    std::uint64_t dpid{0};
    std::uint16_t port{0};
    friend auto operator<=>(const PortRef&, const PortRef&) = default;
  };

  /// Discovered directed links (both directions appear once discovery has
  /// run on both endpoints). Exposed for tests and monitors.
  const mem::map<PortRef, PortRef>& links() const { return links_; }
  std::size_t device_count() const { return device_table_.size(); }
  std::uint64_t lldp_probes_sent() const { return lldp_probes_sent_; }

 protected:
  void on_switch_ready(ConnHandle conn) override;
  void on_packet_in(ConnHandle conn, const ofp::PacketIn& pin) override;
  /// Link-down PORT_STATUS purges discovered links and device attachments
  /// on that port; discovery re-learns after the port returns.
  void on_port_status(ConnHandle conn, const ofp::PortStatus& status) override;

 private:
  struct PathHop {
    std::uint64_t dpid{0};
    std::uint16_t in_port{0};
    std::uint16_t out_port{0};
  };

  void send_lldp_probes(ConnHandle conn);
  bool is_internal_port(PortRef ref) const { return links_.contains(ref); }
  /// BFS over discovered links from `from` (entering on from.port) to the
  /// switch of `to`, leaving on to.port. Empty if not connected. Results
  /// are memoized per (from, to); the reference stays valid until links_
  /// next changes.
  const mem::vector<PathHop>& route(PortRef from, PortRef to);
  /// Every write to links_ goes through here, so no memoized route
  /// outlives the topology it was computed on.
  void links_changed() { route_memo_.clear(); }

  mem::map<std::uint64_t, ConnHandle> conn_by_dpid_;
  mem::map<PortRef, PortRef> links_;               // discovered topology
  /// route() results keyed by (source, destination) attachment point.
  mem::map<std::pair<PortRef, PortRef>, mem::vector<PathHop>> route_memo_;
  mem::map<std::uint64_t, PortRef> device_table_;  // MAC -> attachment point
  std::uint64_t lldp_probes_sent_{0};
};

}  // namespace attain::ctl
