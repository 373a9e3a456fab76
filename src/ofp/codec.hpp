// OpenFlow 1.0 wire codec: header framing plus per-message body
// encode/decode (the paper's injector uses Loxi for this). Control frames
// travel as typed messages; their wire bytes materialize through this codec
// only when something reads them (chan::Envelope), and wire_length() gives
// a frame's size without encoding it.
#pragma once

#include <span>

#include "common/bytes.hpp"
#include "ofp/messages.hpp"
#include "packet/codec.hpp"

namespace attain::ofp {

/// Decoded struct ofp_header.
struct Header {
  std::uint8_t version{kVersion};
  MsgType type{MsgType::Hello};
  std::uint16_t length{kHeaderSize};
  std::uint32_t xid{0};
};

/// Per-thread codec invocation counters. encode()/decode() bump these; the
/// Table II codec-savings test (test_channel.cpp) measures the decode-once
/// envelope path against the encode/decode/decode byte pipeline with them.
/// Thread-local so parallel sweep workers never race — each cell reads its
/// own thread's tally. (pkt::codec_ops() counts the data-plane codec.)
using CodecOpCounters = pkt::CodecOpCounters;

CodecOpCounters& codec_ops();

/// Serializes a message (header + body) to wire bytes. Throws
/// std::length_error above 64 KiB, like wire_length().
Bytes encode(const Message& message);

/// encode(message).size(), computed without encoding (no codec_ops() bump).
/// Throws std::length_error above 64 KiB.
std::size_t wire_length(const Message& message);

/// Peeks at the 8-byte header without touching the body. Throws DecodeError
/// if fewer than 8 bytes are available or the version is not 0x01.
Header decode_header(std::span<const std::uint8_t> data);

/// Decodes one complete message. Throws DecodeError on truncation, version
/// mismatch, or malformed bodies.
Message decode(std::span<const std::uint8_t> data);

}  // namespace attain::ofp
