// Stream reassembler for OpenFlow 1.0 frames: feed TCP-segment-like byte
// chunks, pop complete frames (length taken from each header). The
// simulator moves whole frames, so only the codec tests use it, to check
// decode_header() against arbitrary chunking.
#pragma once

#include <optional>
#include <span>

#include "common/bytes.hpp"
#include "ofp/codec.hpp"

namespace attain::ofp {

class FrameAssembler {
 public:
  void feed(std::span<const std::uint8_t> data) {
    buf_.insert(buf_.end(), data.begin(), data.end());
  }

  /// Extracts the next complete frame's raw bytes, or std::nullopt if more
  /// input is needed. Throws DecodeError on an unparseable header.
  std::optional<Bytes> next_frame() {
    if (buf_.size() < kHeaderSize) return std::nullopt;
    const Header h = decode_header(buf_);
    if (buf_.size() < h.length) return std::nullopt;
    Bytes frame(buf_.begin(), buf_.begin() + h.length);
    buf_.erase(buf_.begin(), buf_.begin() + h.length);
    return frame;
  }

  std::size_t buffered() const { return buf_.size(); }

 private:
  Bytes buf_;
};

}  // namespace attain::ofp
