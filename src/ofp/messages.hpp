// OpenFlow 1.0 messages as typed C++ structures. Each wire message type has
// a struct; `Message` couples a transaction id with a body variant. The wire
// codec lives in ofp/codec.hpp; field reflection for the attack language in
// ofp/fields.hpp.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "common/bytes.hpp"
#include "ofp/actions.hpp"
#include "ofp/constants.hpp"
#include "ofp/match.hpp"
#include "packet/frame.hpp"

namespace attain::ofp {

struct Hello {
  friend bool operator==(const Hello&, const Hello&) = default;
};

struct Error {
  ErrorType type{ErrorType::BadRequest};
  std::uint16_t code{0};
  Bytes data;
  friend bool operator==(const Error&, const Error&) = default;
};

struct EchoRequest {
  Bytes data;
  friend bool operator==(const EchoRequest&, const EchoRequest&) = default;
};

struct EchoReply {
  Bytes data;
  friend bool operator==(const EchoReply&, const EchoReply&) = default;
};

struct Vendor {
  std::uint32_t vendor{0};
  Bytes data;
  friend bool operator==(const Vendor&, const Vendor&) = default;
};

struct FeaturesRequest {
  friend bool operator==(const FeaturesRequest&, const FeaturesRequest&) = default;
};

/// struct ofp_phy_port.
struct PhyPort {
  std::uint16_t port_no{0};
  pkt::MacAddress hw_addr;
  std::string name;
  std::uint32_t config{0};
  std::uint32_t state{0};
  std::uint32_t curr{0};
  std::uint32_t advertised{0};
  std::uint32_t supported{0};
  std::uint32_t peer{0};
  friend bool operator==(const PhyPort&, const PhyPort&) = default;
};

struct FeaturesReply {
  std::uint64_t datapath_id{0};
  std::uint32_t n_buffers{256};
  std::uint8_t n_tables{1};
  std::uint32_t capabilities{0};
  std::uint32_t actions{0xfff};  // bitmap of supported ofp_action_type
  std::vector<PhyPort> ports;
  friend bool operator==(const FeaturesReply&, const FeaturesReply&) = default;
};

struct GetConfigRequest {
  friend bool operator==(const GetConfigRequest&, const GetConfigRequest&) = default;
};

struct GetConfigReply {
  std::uint16_t flags{0};
  std::uint16_t miss_send_len{128};
  friend bool operator==(const GetConfigReply&, const GetConfigReply&) = default;
};

struct SetConfig {
  std::uint16_t flags{0};
  std::uint16_t miss_send_len{128};
  friend bool operator==(const SetConfig&, const SetConfig&) = default;
};

struct PacketIn {
  std::uint32_t buffer_id{kNoBuffer};
  std::uint16_t total_len{0};
  std::uint16_t in_port{0};
  PacketInReason reason{PacketInReason::NoMatch};
  /// The frame (truncated to miss_send_len when buffered); typed when the
  /// switch built it, bytes when decoded from the wire.
  pkt::Frame data;
  friend bool operator==(const PacketIn&, const PacketIn&) = default;
};

struct FlowRemoved {
  Match match;
  std::uint64_t cookie{0};
  std::uint16_t priority{0};
  FlowRemovedReason reason{FlowRemovedReason::IdleTimeout};
  std::uint32_t duration_sec{0};
  std::uint32_t duration_nsec{0};
  std::uint16_t idle_timeout{0};
  std::uint64_t packet_count{0};
  std::uint64_t byte_count{0};
  friend bool operator==(const FlowRemoved&, const FlowRemoved&) = default;
};

struct PortStatus {
  PortReason reason{PortReason::Modify};
  PhyPort desc;
  friend bool operator==(const PortStatus&, const PortStatus&) = default;
};

struct PacketOut {
  std::uint32_t buffer_id{kNoBuffer};
  std::uint16_t in_port{static_cast<std::uint16_t>(Port::None)};
  ActionList actions;
  /// The frame; meaningful only when buffer_id == kNoBuffer.
  pkt::Frame data;
  friend bool operator==(const PacketOut&, const PacketOut&) = default;
};

struct FlowMod {
  Match match;
  std::uint64_t cookie{0};
  FlowModCommand command{FlowModCommand::Add};
  std::uint16_t idle_timeout{0};
  std::uint16_t hard_timeout{0};
  std::uint16_t priority{0x8000};
  std::uint32_t buffer_id{kNoBuffer};
  std::uint16_t out_port{static_cast<std::uint16_t>(Port::None)};
  std::uint16_t flags{0};
  ActionList actions;
  friend bool operator==(const FlowMod&, const FlowMod&) = default;
};

struct PortMod {
  std::uint16_t port_no{0};
  pkt::MacAddress hw_addr;
  std::uint32_t config{0};
  std::uint32_t mask{0};
  std::uint32_t advertise{0};
  friend bool operator==(const PortMod&, const PortMod&) = default;
};

// ---- Statistics ----

struct DescStatsRequest {
  friend bool operator==(const DescStatsRequest&, const DescStatsRequest&) = default;
};

struct DescStats {
  std::string mfr_desc;
  std::string hw_desc;
  std::string sw_desc;
  std::string serial_num;
  std::string dp_desc;
  friend bool operator==(const DescStats&, const DescStats&) = default;
};

struct FlowStatsRequest {
  Match match;
  std::uint8_t table_id{0xff};
  std::uint16_t out_port{static_cast<std::uint16_t>(Port::None)};
  friend bool operator==(const FlowStatsRequest&, const FlowStatsRequest&) = default;
};

struct FlowStatsEntry {
  std::uint8_t table_id{0};
  Match match;
  std::uint32_t duration_sec{0};
  std::uint32_t duration_nsec{0};
  std::uint16_t priority{0};
  std::uint16_t idle_timeout{0};
  std::uint16_t hard_timeout{0};
  std::uint64_t cookie{0};
  std::uint64_t packet_count{0};
  std::uint64_t byte_count{0};
  ActionList actions;
  friend bool operator==(const FlowStatsEntry&, const FlowStatsEntry&) = default;
};

struct AggregateStatsRequest {
  Match match;
  std::uint8_t table_id{0xff};
  std::uint16_t out_port{static_cast<std::uint16_t>(Port::None)};
  friend bool operator==(const AggregateStatsRequest&, const AggregateStatsRequest&) = default;
};

struct AggregateStats {
  std::uint64_t packet_count{0};
  std::uint64_t byte_count{0};
  std::uint32_t flow_count{0};
  friend bool operator==(const AggregateStats&, const AggregateStats&) = default;
};

struct PortStatsRequest {
  std::uint16_t port_no{static_cast<std::uint16_t>(Port::None)};
  friend bool operator==(const PortStatsRequest&, const PortStatsRequest&) = default;
};

struct PortStatsEntry {
  std::uint16_t port_no{0};
  std::uint64_t rx_packets{0};
  std::uint64_t tx_packets{0};
  std::uint64_t rx_bytes{0};
  std::uint64_t tx_bytes{0};
  std::uint64_t rx_dropped{0};
  std::uint64_t tx_dropped{0};
  friend bool operator==(const PortStatsEntry&, const PortStatsEntry&) = default;
};

struct StatsRequest {
  std::uint16_t flags{0};
  std::variant<DescStatsRequest, FlowStatsRequest, AggregateStatsRequest, PortStatsRequest> body;
  StatsType stats_type() const;
  friend bool operator==(const StatsRequest&, const StatsRequest&) = default;
};

struct StatsReply {
  std::uint16_t flags{0};
  std::variant<DescStats, std::vector<FlowStatsEntry>, AggregateStats,
               std::vector<PortStatsEntry>>
      body;
  StatsType stats_type() const;
  friend bool operator==(const StatsReply&, const StatsReply&) = default;
};

struct BarrierRequest {
  friend bool operator==(const BarrierRequest&, const BarrierRequest&) = default;
};

struct BarrierReply {
  friend bool operator==(const BarrierReply&, const BarrierReply&) = default;
};

using Body = std::variant<Hello, Error, EchoRequest, EchoReply, Vendor, FeaturesRequest,
                          FeaturesReply, GetConfigRequest, GetConfigReply, SetConfig, PacketIn,
                          FlowRemoved, PortStatus, PacketOut, FlowMod, PortMod, StatsRequest,
                          StatsReply, BarrierRequest, BarrierReply>;

/// A complete OpenFlow message: transaction id + typed body. The wire
/// header's version/type/length are derived during encoding.
struct Message {
  std::uint32_t xid{0};
  Body body;

  MsgType type() const;

  template <typename T>
  bool is() const {
    return std::holds_alternative<T>(body);
  }
  template <typename T>
  const T& as() const {
    return std::get<T>(body);
  }
  template <typename T>
  T& as() {
    return std::get<T>(body);
  }

  /// One-line rendering for monitors/logs.
  std::string summary() const;

  friend bool operator==(const Message&, const Message&) = default;
};

/// Builds a message with the given xid and body.
template <typename T>
Message make_message(std::uint32_t xid, T body) {
  return Message{xid, Body{std::move(body)}};
}

}  // namespace attain::ofp
