// The unified control-channel pipeline. One Channel models one switch <->
// controller control connection routed through the interposition point:
//
//   switch ==pipe==> [proxy point: seal, account -> proxy sink] ==pipe==> controller
//          <==pipe== [                 ...                    ] <==pipe==
//
// Both directions cross the same proxy point. There the channel seals TLS
// frames and does the codec accounting, then hands the frame to one
// optional proxy sink (the runtime injector, §VI-B2). The sink either
// passes the frame on through forward() — now, later, or on a different
// channel, which is how redirected messages travel — or consumes it.
// Without a sink the frame is forwarded unchanged. Endpoints attach as
// envelope sinks, so the whole path is typed: a typed frame is never
// encoded (each hop sizes it with ofp::wire_length) and a raw-wire frame is
// decoded at most once, instead of the encode/decode/decode round-trip the
// previous std::function<void(Bytes)> plumbing paid per frame.
//
// Each channel keeps deterministic per-direction counters; a capture of
// the frames themselves would hook the proxy point (set_proxy_sink).
#pragma once

#include <array>
#include <cstdint>
#include <functional>

#include "chan/envelope.hpp"
#include "sim/link.hpp"
#include "sim/scheduler.hpp"

namespace attain::chan {

/// Per-direction channel accounting. codec_ops_saved counts the
/// ofp::encode/ofp::decode invocations the envelope cache avoided relative
/// to the byte pipeline (one proxy decode per readable frame, one endpoint
/// decode per delivered frame).
struct DirectionCounters {
  std::uint64_t frames{0};            // entered the channel at this direction's ingress
  std::uint64_t forwarded{0};         // left the proxy point toward the endpoint
  std::uint64_t suppressed{0};        // consumed at the proxy point (injector verdict)
  std::uint64_t decode_errors{0};     // frames whose wire bytes do not parse
  std::uint64_t codec_ops_saved{0};

  void add(const DirectionCounters& other);
};

/// A coalesced burst of envelopes sharing one delivery instant on one pipe
/// (see sim::PayloadBatch and Pipe::set_batch_receiver).
using EnvelopeBatch = sim::PayloadBatch<Envelope>;

/// The proxy step at a channel's proxy point: receives every frame (both
/// directions) and either passes it on through Channel::forward() or
/// consumes it.
using ProxySink = std::function<void(Direction, Envelope&&)>;

struct ChannelConfig {
  /// TLS connection: frames are sealed at the proxy point (the proxy sink
  /// cannot read the payload) and unsealed at delivery.
  bool tls{false};
  /// Per-hop pipe configuration (switch<->proxy and proxy<->controller
  /// segments — two hops per direction, as in the paper's deployment where
  /// the proxy sits on a dedicated control network).
  sim::PipeConfig segment{1'000'000'000, 150 * kMicrosecond, 0};
};

class Channel {
 public:
  Channel(sim::Scheduler& sched, ChannelConfig config);

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  const ChannelConfig& config() const { return config_; }

  // --- endpoint wiring -----------------------------------------------------
  /// Delivery sinks at the two ends (invoked after the egress pipe hop,
  /// with the envelope unsealed).
  void set_switch_sink(EnvelopeSink sink) { switch_sink_ = std::move(sink); }
  void set_controller_sink(EnvelopeSink sink) { controller_sink_ = std::move(sink); }

  /// Ingress: endpoints send their frames here (the switch's control
  /// sender / the controller's connection sender).
  void send_from_switch(Envelope&& envelope);
  void send_from_controller(Envelope&& envelope);
  /// The above, bound as sinks for handing to endpoints.
  EnvelopeSink switch_sender();
  EnvelopeSink controller_sender();

  // --- proxy point ---------------------------------------------------------
  /// Installs the proxy step; without one, frames are forwarded unchanged.
  void set_proxy_sink(ProxySink sink) { proxy_sink_ = std::move(sink); }

  /// Egress from the proxy point: sends the envelope down the pipe toward
  /// the endpoint `direction` points at. Used by the proxy sink (and by the
  /// channel itself when no sink is installed).
  void forward(Direction direction, Envelope&& envelope);
  /// Accounting hook for a proxy sink that consumed a frame.
  void note_suppressed(Direction direction);

  // --- observability -------------------------------------------------------
  const DirectionCounters& counters(Direction direction) const {
    return counters_[static_cast<std::size_t>(direction)];
  }
  /// Both directions summed.
  DirectionCounters totals() const;

 private:
  /// Proxy-point ingress (the only one): per envelope, TLS sealing, codec
  /// accounting, then the proxy sink.
  void arrive_at_proxy_batch(Direction direction, EnvelopeBatch& batch);
  void deliver_batch(Direction direction, EnvelopeBatch& batch);
  void deliver(Direction direction, Envelope&& envelope);
  DirectionCounters& dir_counters(Direction direction) {
    return counters_[static_cast<std::size_t>(direction)];
  }

  sim::Scheduler& sched_;
  ChannelConfig config_;

  sim::Pipe<Envelope> switch_to_proxy_;
  sim::Pipe<Envelope> proxy_to_switch_;
  sim::Pipe<Envelope> controller_to_proxy_;
  sim::Pipe<Envelope> proxy_to_controller_;

  ProxySink proxy_sink_;
  EnvelopeSink switch_sink_;
  EnvelopeSink controller_sink_;

  std::array<DirectionCounters, 2> counters_{};
};

}  // namespace attain::chan
