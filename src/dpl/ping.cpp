#include "dpl/ping.hpp"

#include <algorithm>

namespace attain::dpl {

std::size_t PingReport::received() const {
  return static_cast<std::size_t>(
      std::count_if(trials.begin(), trials.end(), [](const PingTrial& t) { return t.rtt.has_value(); }));
}

double PingReport::loss_fraction() const {
  if (trials.empty()) return 0.0;
  return 1.0 - static_cast<double>(received()) / static_cast<double>(trials.size());
}

std::optional<double> PingReport::mean_rtt_seconds() const {
  double sum = 0.0;
  std::size_t n = 0;
  for (const PingTrial& t : trials) {
    if (t.rtt) {
      sum += to_seconds(*t.rtt);
      ++n;
    }
  }
  if (n == 0) return std::nullopt;
  return sum / static_cast<double>(n);
}

std::optional<double> PingReport::min_rtt_seconds() const {
  std::optional<double> best;
  for (const PingTrial& t : trials) {
    if (t.rtt && (!best || to_seconds(*t.rtt) < *best)) best = to_seconds(*t.rtt);
  }
  return best;
}

std::optional<double> PingReport::max_rtt_seconds() const {
  std::optional<double> best;
  for (const PingTrial& t : trials) {
    if (t.rtt && (!best || to_seconds(*t.rtt) > *best)) best = to_seconds(*t.rtt);
  }
  return best;
}

PingApp::PingApp(Host& src, pkt::Ipv4Address dst_ip, std::uint16_t icmp_id)
    : src_(src), dst_ip_(dst_ip), icmp_id_(icmp_id) {
  src_.set_icmp_echo_handler([this](const pkt::Packet& packet) { on_echo_reply(packet); });
}

void PingApp::start(unsigned trials, SimTime interval, SimTime timeout) {
  if (trials == 0) {
    done_ = true;
    return;
  }
  trials_.reserve(trials);
  send_trial(0, trials, interval, timeout);
}

void PingApp::send_trial(unsigned index, unsigned total, SimTime interval, SimTime timeout) {
  const std::uint16_t seq = next_seq_++;
  PingTrial trial;
  trial.seq = seq;
  trial.sent_at = src_.scheduler().now();
  trials_.push_back(trial);

  src_.send_ip(dst_ip_, [this, seq](pkt::MacAddress dst_mac) {
    return pkt::make_icmp_echo(src_.mac(), dst_mac, src_.ip(), dst_ip_,
                               pkt::IcmpType::EchoRequest, icmp_id_, seq,
                               static_cast<std::uint64_t>(src_.scheduler().now()));
  });

  if (index + 1 < total) {
    src_.scheduler().after(interval,
                           [this, index, total, interval, timeout] {
                             send_trial(index + 1, total, interval, timeout);
                           });
  } else {
    src_.scheduler().after(timeout, [this] { done_ = true; });
  }
}

void PingApp::on_echo_reply(const pkt::Packet& packet) {
  if (!packet.icmp || packet.icmp->id != icmp_id_) return;
  const std::uint16_t seq = packet.icmp->seq;
  for (PingTrial& trial : trials_) {
    if (trial.seq == seq && !trial.rtt) {
      trial.rtt = src_.scheduler().now() - static_cast<SimTime>(packet.payload_tag);
      return;
    }
  }
}

}  // namespace attain::dpl
