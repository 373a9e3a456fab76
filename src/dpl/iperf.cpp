#include "dpl/iperf.hpp"

namespace attain::dpl {

IperfServer::IperfServer(Host& host, std::uint16_t port) : host_(host), port_(port) {
  host_.register_tcp_port(port_, [this](const pkt::Packet& packet) { on_segment(packet); });
}

void IperfServer::on_segment(const pkt::Packet& packet) {
  if (!packet.tcp || !packet.ipv4) return;
  const std::uint32_t seq = packet.tcp->seq;
  const std::uint32_t len = packet.payload_size;
  if (seq == expected_) {
    expected_ += len;
    // Drain any previously buffered segments that are now contiguous.
    auto it = out_of_order_.begin();
    while (it != out_of_order_.end() && it->first <= expected_) {
      expected_ = std::max(expected_, it->second);
      it = out_of_order_.erase(it);
    }
  } else if (seq > expected_ && out_of_order_.size() < kReassemblyLimit) {
    auto& end = out_of_order_[seq];
    end = std::max(end, seq + len);
  } else if (seq < expected_) {
    ++discarded_;  // duplicate (retransmission overlap)
  } else {
    ++discarded_;  // reassembly buffer full
  }
  // Cumulative ACK (duplicate when out of order — go-back-N discards gaps).
  const pkt::Ipv4Address client_ip = packet.ipv4->src;
  const std::uint16_t client_port = packet.tcp->src_port;
  pkt::TcpHeader ack;
  ack.src_port = port_;
  ack.dst_port = client_port;
  ack.ack = expected_;
  ack.flags = pkt::kTcpAck;
  host_.send_ip(client_ip, [this, ack, client_ip](pkt::MacAddress dst_mac) {
    return pkt::make_tcp(host_.mac(), dst_mac, host_.ip(), client_ip, ack, 0, 0);
  });
}

IperfClient::IperfClient(Host& host, pkt::Ipv4Address server_ip, Config config)
    : host_(host), server_ip_(server_ip), config_(config) {
  host_.register_tcp_port(config_.client_port,
                          [this](const pkt::Packet& packet) { on_ack(packet); });
}

void IperfClient::start(SimTime duration) {
  running_ = true;
  started_at_ = host_.scheduler().now();
  deadline_ = started_at_ + duration;
  host_.scheduler().at(deadline_, [this] { finish(); });
  arm_timer();
  fill_window();
}

void IperfClient::fill_window() {
  if (!running_) return;
  while (next_ < base_ + config_.window_bytes && host_.scheduler().now() < deadline_) {
    send_segment(next_);
    next_ += config_.segment_bytes;
  }
}

void IperfClient::send_segment(std::uint32_t seq) {
  ++result_.segments_sent;
  pkt::TcpHeader tcp;
  tcp.src_port = config_.client_port;
  tcp.dst_port = config_.server_port;
  tcp.seq = seq;
  tcp.flags = pkt::kTcpPsh | pkt::kTcpAck;
  host_.send_ip(server_ip_, [this, tcp](pkt::MacAddress dst_mac) {
    return pkt::make_tcp(host_.mac(), dst_mac, host_.ip(), server_ip_, tcp, config_.segment_bytes,
                         0);
  });
}

void IperfClient::on_ack(const pkt::Packet& packet) {
  if (!running_ || !packet.tcp || (packet.tcp->flags & pkt::kTcpAck) == 0) return;
  const std::uint32_t ack = packet.tcp->ack;
  if (ack > base_) {
    base_ = ack;
    arm_timer();
    fill_window();
  }
}

void IperfClient::on_rto() {
  if (!running_) return;
  // Go-back-N: resend everything from the lowest unacked byte.
  ++result_.retransmissions;
  next_ = base_;
  arm_timer();
  fill_window();
}

void IperfClient::arm_timer() {
  sim::Scheduler& sched = host_.scheduler();
  sched.rearm(rto_timer_, sched.now() + config_.rto, [this] { on_rto(); });
}

void IperfClient::finish() {
  running_ = false;
  done_ = true;
  rto_timer_.cancel();
  result_.bytes_acked = base_;
  result_.duration = host_.scheduler().now() - started_at_;
}

}  // namespace attain::dpl
