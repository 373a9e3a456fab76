#include "ctl/ryu.hpp"

namespace attain::ctl {

void RyuSimpleSwitch::on_packet_in(ConnHandle conn, const ofp::PacketIn& pin) {
  const std::optional<pkt::Packet> view = pin.data.packet();
  if (!view) return;
  const pkt::Packet& packet = *view;
  auto& macs = tables_[conn];
  macs[packet.eth.src.to_u64()] = pin.in_port;

  const auto it = macs.find(packet.eth.dst.to_u64());
  const std::uint16_t out_port = (it != macs.end() && !packet.eth.dst.is_multicast())
                                     ? it->second
                                     : static_cast<std::uint16_t>(ofp::Port::Flood);
  const ofp::ActionList actions = ofp::output_to(out_port);

  if (out_port != static_cast<std::uint16_t>(ofp::Port::Flood)) {
    // add_flow(): match on in_port + dl_dst only, permanent entry,
    // SEND_FLOW_REM flag — verbatim from ryu/app/simple_switch.py.
    ofp::FlowMod mod;
    mod.match.wildcards = ofp::wc::kAll & ~(ofp::wc::kInPort | ofp::wc::kDlDst);
    mod.match.in_port = pin.in_port;
    mod.match.dl_dst = packet.eth.dst;
    mod.command = ofp::FlowModCommand::Add;
    mod.idle_timeout = 0;
    mod.hard_timeout = 0;
    mod.flags = ofp::kFlowModSendFlowRem;
    mod.actions = actions;
    send(conn, ofp::make_message(next_xid(), std::move(mod)));
  }

  // The packet is always released via PACKET_OUT (buffer reference when the
  // switch buffered it, raw data otherwise).
  ofp::PacketOut out;
  out.buffer_id = pin.buffer_id;
  out.in_port = pin.in_port;
  out.actions = actions;
  if (pin.buffer_id == ofp::kNoBuffer) out.data = pin.data;
  send(conn, ofp::make_message(next_xid(), std::move(out)));
}

}  // namespace attain::ctl
