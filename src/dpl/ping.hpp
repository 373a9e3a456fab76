// The `ping` workload of the paper's experiments: periodic ICMP echo
// trials with per-trial RTT measurement (§VII-B timing scripts).
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "common/arena.hpp"
#include "dpl/host.hpp"

namespace attain::dpl {

struct PingTrial {
  std::uint16_t seq{0};
  SimTime sent_at{0};
  /// Round-trip time; std::nullopt when the reply never arrived within the
  /// trial timeout (the paper's "latency is infinite" case).
  std::optional<SimTime> rtt;
};

struct PingReport {
  /// Heap-backed: a report outlives the cell that made it, so it must not
  /// pin thread-slab blocks the next cell on the thread reuses.
  std::vector<PingTrial> trials;

  std::size_t sent() const { return trials.size(); }
  std::size_t received() const;
  double loss_fraction() const;
  /// Mean RTT over answered trials, in seconds; std::nullopt if none.
  std::optional<double> mean_rtt_seconds() const;
  std::optional<double> min_rtt_seconds() const;
  std::optional<double> max_rtt_seconds() const;
};

/// Runs `ping -c trials` from `src` toward `dst_ip`. Trials accumulate in a
/// slab-backed list (one push per trial during the simulate loop) that
/// report() copies out; done() flips after the last trial's timeout.
class PingApp {
 public:
  PingApp(Host& src, pkt::Ipv4Address dst_ip, std::uint16_t icmp_id = 1);

  /// Starts `trials` echo requests, `interval` apart, each with `timeout`
  /// to answer.
  void start(unsigned trials, SimTime interval = 1 * kSecond, SimTime timeout = 1 * kSecond);

  PingReport report() const { return {{trials_.begin(), trials_.end()}}; }
  bool done() const { return done_; }

 private:
  void send_trial(unsigned index, unsigned total, SimTime interval, SimTime timeout);
  void on_echo_reply(const pkt::Packet& packet);

  Host& src_;
  pkt::Ipv4Address dst_ip_;
  std::uint16_t icmp_id_;
  std::uint16_t next_seq_{1};
  mem::vector<PingTrial> trials_;
  bool done_{false};
};

}  // namespace attain::dpl
