// EINTR-safe pipe I/O and length-prefixed framing: the wire layer under
// every process boundary in the repository — the snapshot fork's
// one-blob-per-pipe tail shipping (snap/snapshot.cpp), the distributed
// campaign runner's multiplexed task/result streams (sweep/distributed.*)
// and the campaign journal's records (sweep/journal.*).
//
// A frame is a big-endian u32 payload length followed by the payload
// bytes. The framing only guarantees message boundaries; Eof at a frame
// boundary is a clean shutdown, anything else (partial header, partial
// payload, oversize length) is Error. Distributed frames and journal
// records are also sealed: seal() appends an fnv1a64 digest of the body
// inside the payload, so a corrupted frame is distinguishable from a
// merely short read. What the bodies hold is the caller's business.
#pragma once

#include <cstdint>
#include <span>

#include "common/bytes.hpp"

namespace attain::snap::wire {

/// Upper bound on one frame's payload. Far above any real result blob (a
/// Fig. 11 cell with 8000 ping trials encodes to about 150 KiB); a length
/// beyond this is treated as stream corruption, not an allocation request.
inline constexpr std::size_t kMaxFramePayload = 64u << 20;

/// Writes all of `data`, retrying on EINTR. Returns false when the write
/// fails for any other reason (EPIPE after the reader died, EBADF, ...);
/// the caller treats the peer as gone.
bool write_exact(int fd, std::span<const std::uint8_t> data);

/// Writes one length-prefixed frame. Returns false when the peer is gone.
bool write_frame(int fd, std::span<const std::uint8_t> payload);

enum class FrameStatus {
  Ok,     // one whole frame read into `out`
  Eof,    // clean end of stream at a frame boundary
  Error,  // truncated mid-frame, oversize length, or read failure
};

/// Reads one frame. Blocking; retries EINTR. `out` is overwritten on Ok
/// and unspecified otherwise.
FrameStatus read_frame(int fd, Bytes& out, std::size_t max_payload = kMaxFramePayload);

/// Reads the stream to EOF (the snapshot tail protocol: one blob per
/// pipe, delimited by the writer closing its end).
Bytes read_stream(int fd);

/// Seals a frame body for integrity checking: returns body || fnv1a64(body).
/// A sealed payload distinguishes "frame arrived whole" (the framing
/// layer) from "frame content is what the sender wrote" — the journal and
/// the distributed result stream both require the latter.
Bytes seal(ByteWriter&& body);

/// Verifies and strips a sealed payload's trailing digest. On success
/// `body` views the payload's content bytes (aliasing `payload` — it must
/// outlive the view). Returns false on short payloads or digest mismatch.
bool unseal(const Bytes& payload, std::span<const std::uint8_t>& body);

}  // namespace attain::snap::wire
