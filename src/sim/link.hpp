// Point-to-point link and channel models.
//
// Pipe<T> is a unidirectional FIFO transmission pipe with finite bandwidth,
// propagation delay, and a bounded drop-tail queue. The data plane sends
// pkt::Packet through pairs of pipes; the control plane sends
// chan::Envelope control frames (with effectively infinite bandwidth but
// nonzero latency, modelling a healthy management network as in the paper's
// GENI deployment, where the control network was a separate switch).
// Receivers take each payload, or each coalesced batch, by reference.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <type_traits>
#include <utility>

#include "common/arena.hpp"
#include "common/types.hpp"
#include "sim/scheduler.hpp"

namespace attain::pkt {
struct Packet;
}  // namespace attain::pkt

namespace attain::sim {

/// One coalesced payload inside a PayloadBatch.
template <typename T>
struct BatchItem {
  T payload;
  std::size_t size_bytes{0};
};

/// A burst of payloads that share one delivery instant on one pipe. The
/// batch fires as a single scheduler event but counts as one logical event
/// per item (Scheduler::count_extra_events), so events_executed() and every
/// delivery side effect stay byte-identical to the scalar schedule.
template <typename T>
using PayloadBatch = mem::vector<BatchItem<T>>;

/// Largest payload size whose serialization product size * 8 * kSecond
/// still fits in 64 bits (about 2.3 TB): every real frame.
inline constexpr std::uint64_t kNarrowSerializationBytes =
    UINT64_MAX / (8 * static_cast<std::uint64_t>(kSecond));

/// Time to clock `size_bytes` onto a link of `bandwidth_bps` (0 means
/// infinite: no serialization delay), rounded down to whole microseconds.
/// Sizes up to kNarrowSerializationBytes divide in 64 bits; larger ones fall
/// back to 128-bit arithmetic (a libgcc call), with the same result.
inline SimTime serialization_delay(std::size_t size_bytes, std::uint64_t bandwidth_bps) {
  if (bandwidth_bps == 0) return 0;
  if (size_bytes <= kNarrowSerializationBytes) {
    return static_cast<SimTime>(static_cast<std::uint64_t>(size_bytes) * 8 *
                                static_cast<std::uint64_t>(kSecond) / bandwidth_bps);
  }
  return static_cast<SimTime>(static_cast<__int128>(size_bytes) * 8 * kSecond / bandwidth_bps);
}

/// Counters describing a pipe's lifetime behaviour; used by monitors and
/// the benchmark harness.
struct PipeStats {
  std::uint64_t enqueued{0};
  std::uint64_t delivered{0};
  std::uint64_t dropped_overflow{0};
  std::uint64_t bytes_delivered{0};
};

/// Configuration for a Pipe. bandwidth_bps == 0 means "infinite" (no
/// serialization delay); queue_limit == 0 means unbounded.
struct PipeConfig {
  std::uint64_t bandwidth_bps{100'000'000};  // paper: 100 Mbps links
  SimTime propagation_delay{500 * kMicrosecond};
  std::size_t queue_limit{256};
};

/// Unidirectional transmission pipe. The receiver is a callback taking the
/// payload by rvalue reference (it may move from it); payload sizes are
/// supplied by the caller so the pipe stays agnostic of the payload type.
template <typename T>
class Pipe {
 public:
  using Receiver = std::function<void(T&&)>;
  /// Takes the batch by reference: the receiver may move payloads out, and
  /// the pipe keeps the batch's storage for the next burst.
  using BatchReceiver = std::function<void(PayloadBatch<T>&)>;

  Pipe(Scheduler& sched, PipeConfig config) : sched_(&sched), config_(config) {}

  void set_receiver(Receiver receiver) { receiver_ = std::move(receiver); }

  /// Opts this pipe into delivery coalescing: consecutive sends that share a
  /// delivery instant — with no event scheduled anywhere in between (see
  /// Scheduler::issue_seq) — are handed to `receiver` as one batch instead
  /// of one event each. Delivery order, per-payload stats, and
  /// events_executed() accounting are preserved exactly. A pipe with a
  /// batch receiver never calls its scalar receiver.
  void set_batch_receiver(BatchReceiver receiver) { batch_receiver_ = std::move(receiver); }

  const PipeStats& stats() const { return stats_; }
  const PipeConfig& config() const { return config_; }

  /// True while the pipe forwards traffic. A severed pipe silently drops
  /// everything — used to model physical link failure / hard connection
  /// interruption.
  bool up() const { return up_; }
  void set_up(bool up) { up_ = up; }

  /// Submits a payload of `size_bytes` for transmission. Serialization
  /// occupies the pipe for size*8/bandwidth; payloads queue FIFO behind the
  /// current transmission and overflow is dropped at the tail.
  void send(const T& payload, std::size_t size_bytes) { send(T(payload), size_bytes); }
  void send(T&& payload, std::size_t size_bytes) {
    if (!up_) return;
    if (config_.queue_limit != 0 && in_flight_ >= config_.queue_limit) {
      ++stats_.dropped_overflow;
      return;
    }
    ++stats_.enqueued;
    ++in_flight_;
    const SimTime serialize = serialization_delay(size_bytes, config_.bandwidth_bps);
    const SimTime start = std::max(sched_->now(), busy_until_);
    busy_until_ = start + serialize;
    const SimTime deliver_at = busy_until_ + config_.propagation_delay;
    if (batch_receiver_) {
      if (open_batch_ != kNoBatch && open_deliver_at_ == deliver_at &&
          sched_->issue_seq() == open_seq_) {
        // Nothing was scheduled since the last append, so no event can be
        // ordered between this payload and the batch ahead of it: coalesce.
        batch_pool_[open_batch_].emplace_back(std::move(payload), size_bytes);
        return;
      }
      const std::uint32_t slot = acquire_batch();
      batch_pool_[slot].emplace_back(std::move(payload), size_bytes);
      open_batch_ = slot;
      open_deliver_at_ = deliver_at;
      auto fire = [this, slot] { fire_batch(slot); };
      static_assert(Task::kNothrowEmplace<decltype(fire)>);
      sched_->at(deliver_at, fire);
      open_seq_ = sched_->issue_seq();  // snapshot AFTER our own at()
      return;
    }
    auto deliver = [this, payload = std::move(payload), size_bytes]() mutable {
      --in_flight_;
      if (!up_) return;
      ++stats_.delivered;
      stats_.bytes_delivered += size_bytes;
      if (receiver_) receiver_(std::move(payload));
    };
    if constexpr (std::is_same_v<T, pkt::Packet>) {
      // The data plane's per-frame event: it must be built in its slot.
      static_assert(Task::kNothrowEmplace<decltype(deliver)>,
                    "Pipe<pkt::Packet>'s delivery lambda outgrew Task::kInlineSize");
    }
    sched_->at(deliver_at, std::move(deliver));
  }

 private:
  static constexpr std::uint32_t kNoBatch = 0xffffffffu;

  std::uint32_t acquire_batch() {
    if (!free_batches_.empty()) {
      const std::uint32_t slot = free_batches_.back();
      free_batches_.pop_back();
      return slot;
    }
    const std::uint32_t slot = static_cast<std::uint32_t>(batch_pool_.size());
    batch_pool_.emplace_back();
    // Every slot fits in the free list, so releasing one never allocates;
    // the list grows with the pool's geometric capacity, not per slot.
    if (free_batches_.capacity() < batch_pool_.size()) {
      free_batches_.reserve(batch_pool_.capacity());
    }
    return slot;
  }

  /// Returns a delivered batch's storage to its slot, emptied but with its
  /// capacity, and frees the slot.
  struct SlotRelease {
    Pipe* pipe;
    std::uint32_t slot;
    PayloadBatch<T>& items;
    ~SlotRelease() {
      items.clear();
      pipe->batch_pool_[slot] = std::move(items);
      pipe->free_batches_.push_back(slot);
    }
  };

  void fire_batch(std::uint32_t slot) {
    if (open_batch_ == slot) open_batch_ = kNoBatch;
    // Delivered from a local: a send from inside the receiver may grow
    // batch_pool_, and cannot reuse this slot until the receiver returns
    // (or throws), when SlotRelease hands the storage back.
    PayloadBatch<T> items = std::move(batch_pool_[slot]);
    const SlotRelease release{this, slot, items};
    if (items.size() > 1) sched_->count_extra_events(items.size() - 1);
    in_flight_ -= items.size();
    // up_ cannot differ across the batch: any set_up happens inside another
    // event, and the coalescing guard proved no event sits between these
    // deliveries in the scalar schedule.
    if (!up_) return;
    stats_.delivered += items.size();
    for (const BatchItem<T>& item : items) stats_.bytes_delivered += item.size_bytes;
    batch_receiver_(items);
  }

  Scheduler* sched_;
  PipeConfig config_;
  Receiver receiver_;
  BatchReceiver batch_receiver_;
  PipeStats stats_;
  SimTime busy_until_{0};
  std::size_t in_flight_{0};
  bool up_{true};
  mem::vector<PayloadBatch<T>> batch_pool_;
  mem::vector<std::uint32_t> free_batches_;
  std::uint32_t open_batch_{kNoBatch};
  SimTime open_deliver_at_{0};
  std::uint64_t open_seq_{0};
};

/// A bidirectional link: two independent pipes sharing a configuration.
template <typename T>
class Duplex {
 public:
  Duplex(Scheduler& sched, PipeConfig config) : a_to_b_(sched, config), b_to_a_(sched, config) {}

  Pipe<T>& a_to_b() { return a_to_b_; }
  Pipe<T>& b_to_a() { return b_to_a_; }

  void set_up(bool up) {
    a_to_b_.set_up(up);
    b_to_a_.set_up(up);
  }

 private:
  Pipe<T> a_to_b_;
  Pipe<T> b_to_a_;
};

/// Returns the one-way latency a payload of `size_bytes` experiences on an
/// idle pipe with `config` — used by tests and the analytical models in
/// EXPERIMENTS.md.
SimTime idle_pipe_latency(const PipeConfig& config, std::size_t size_bytes);

}  // namespace attain::sim
