// OpenFlow 1.0 protocol constants (OpenFlow Switch Specification v1.0.0,
// wire protocol 0x01). Names follow the spec's ofp_* enumerations.
#pragma once

#include <cstdint>
#include <string>

namespace attain::ofp {

inline constexpr std::uint8_t kVersion = 0x01;
inline constexpr std::size_t kHeaderSize = 8;
inline constexpr std::size_t kMatchSize = 40;

/// ofp_type: top-level message types.
enum class MsgType : std::uint8_t {
  Hello = 0,
  Error = 1,
  EchoRequest = 2,
  EchoReply = 3,
  Vendor = 4,
  FeaturesRequest = 5,
  FeaturesReply = 6,
  GetConfigRequest = 7,
  GetConfigReply = 8,
  SetConfig = 9,
  PacketIn = 10,
  FlowRemoved = 11,
  PortStatus = 12,
  PacketOut = 13,
  FlowMod = 14,
  PortMod = 15,
  StatsRequest = 16,
  StatsReply = 17,
  BarrierRequest = 18,
  BarrierReply = 19,
};
inline constexpr std::size_t kMsgTypeCount = static_cast<std::size_t>(MsgType::BarrierReply) + 1;

std::string to_string(MsgType type);

/// ofp_port: reserved port numbers.
enum class Port : std::uint16_t {
  Max = 0xff00,
  InPort = 0xfff8,
  Table = 0xfff9,
  Normal = 0xfffa,
  Flood = 0xfffb,
  All = 0xfffc,
  Controller = 0xfffd,
  Local = 0xfffe,
  None = 0xffff,
};

/// ofp_flow_mod_command.
enum class FlowModCommand : std::uint16_t {
  Add = 0,
  Modify = 1,
  ModifyStrict = 2,
  Delete = 3,
  DeleteStrict = 4,
};

std::string to_string(FlowModCommand command);

/// ofp_flow_mod_flags.
inline constexpr std::uint16_t kFlowModSendFlowRem = 1 << 0;
inline constexpr std::uint16_t kFlowModCheckOverlap = 1 << 1;
inline constexpr std::uint16_t kFlowModEmerg = 1 << 2;

/// ofp_packet_in_reason.
enum class PacketInReason : std::uint8_t { NoMatch = 0, Action = 1 };

/// ofp_flow_removed_reason.
enum class FlowRemovedReason : std::uint8_t {
  IdleTimeout = 0,
  HardTimeout = 1,
  Delete = 2,
};

/// ofp_port_reason (PORT_STATUS).
enum class PortReason : std::uint8_t { Add = 0, Delete = 1, Modify = 2 };

/// ofp_error_type.
enum class ErrorType : std::uint16_t {
  HelloFailed = 0,
  BadRequest = 1,
  BadAction = 2,
  FlowModFailed = 3,
  PortModFailed = 4,
  QueueOpFailed = 5,
};

/// ofp_stats_types.
enum class StatsType : std::uint16_t {
  Desc = 0,
  Flow = 1,
  Aggregate = 2,
  Table = 3,
  Port = 4,
  Queue = 5,
  Vendor = 0xffff,
};

/// ofp_action_type.
enum class ActionType : std::uint16_t {
  Output = 0,
  SetVlanVid = 1,
  SetVlanPcp = 2,
  StripVlan = 3,
  SetDlSrc = 4,
  SetDlDst = 5,
  SetNwSrc = 6,
  SetNwDst = 7,
  SetNwTos = 8,
  SetTpSrc = 9,
  SetTpDst = 10,
  Enqueue = 11,
};

/// "No buffer" sentinel for buffer_id fields.
inline constexpr std::uint32_t kNoBuffer = 0xffffffff;

/// OFP_VLAN_NONE: packet has no 802.1Q tag.
inline constexpr std::uint16_t kVlanNone = 0xffff;

/// Default TCP port a controller listens on (pre-IANA OpenFlow port).
inline constexpr std::uint16_t kDefaultControllerPort = 6633;

}  // namespace attain::ofp
