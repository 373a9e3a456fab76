#include "ctl/pox.hpp"

#include "common/log.hpp"

namespace attain::ctl {

void PoxL2Learning::on_packet_in(ConnHandle conn, const ofp::PacketIn& pin) {
  const std::optional<pkt::Packet> view = pin.data.packet();
  if (!view) return;
  const pkt::Packet& packet = *view;
  auto& macs = tables_[conn];
  macs[packet.eth.src.to_u64()] = pin.in_port;

  auto flood = [&] {
    ofp::PacketOut out;
    out.buffer_id = pin.buffer_id;
    out.in_port = pin.in_port;
    out.actions = ofp::output_to(ofp::Port::Flood);
    if (pin.buffer_id == ofp::kNoBuffer) out.data = pin.data;
    send(conn, ofp::make_message(next_xid(), std::move(out)));
  };

  if (packet.eth.dst.is_multicast()) {
    flood();
    return;
  }
  const auto it = macs.find(packet.eth.dst.to_u64());
  if (it == macs.end()) {
    flood();
    return;
  }
  if (it->second == pin.in_port) {
    // "Same port for packet from %s -> %s: drop" — POX installs nothing
    // and releases the buffer with an action-less PACKET_OUT.
    ofp::PacketOut out;
    out.buffer_id = pin.buffer_id;
    out.in_port = pin.in_port;
    send(conn, ofp::make_message(next_xid(), std::move(out)));
    return;
  }

  // Install an exact match built from the packet and let the FLOW_MOD
  // release the buffered packet (no separate PACKET_OUT).
  ofp::FlowMod mod;
  mod.match = ofp::Match::from_packet(packet, pin.in_port);
  mod.command = ofp::FlowModCommand::Add;
  mod.idle_timeout = kIdleTimeout;
  mod.hard_timeout = kHardTimeout;
  mod.buffer_id = pin.buffer_id;
  mod.actions = ofp::output_to(it->second);
  send(conn, ofp::make_message(next_xid(), std::move(mod)));

  // When the switch could not buffer the packet, POX falls back to an
  // explicit PACKET_OUT carrying the frame.
  if (pin.buffer_id == ofp::kNoBuffer && !pin.data.empty()) {
    ofp::PacketOut out;
    out.in_port = pin.in_port;
    out.actions = ofp::output_to(it->second);
    out.data = pin.data;
    send(conn, ofp::make_message(next_xid(), std::move(out)));
  }
}

}  // namespace attain::ctl
