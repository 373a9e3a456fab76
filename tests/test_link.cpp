#include "sim/link.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace attain::sim {
namespace {

TEST(Pipe, DeliversAfterSerializationAndPropagation) {
  Scheduler sched;
  PipeConfig config;
  config.bandwidth_bps = 8'000'000;  // 1 byte/us
  config.propagation_delay = 100;
  Pipe<int> pipe(sched, config);
  SimTime delivered_at = -1;
  pipe.set_receiver([&](int) { delivered_at = sched.now(); });
  pipe.send(1, 500);  // 500 us serialization
  sched.run();
  EXPECT_EQ(delivered_at, 600);
  EXPECT_EQ(idle_pipe_latency(config, 500), 600);
}

TEST(Pipe, QueuesFifoBehindBusyTransmitter) {
  Scheduler sched;
  PipeConfig config;
  config.bandwidth_bps = 8'000'000;
  config.propagation_delay = 0;
  Pipe<int> pipe(sched, config);
  std::vector<std::pair<int, SimTime>> deliveries;
  pipe.set_receiver([&](int v) { deliveries.emplace_back(v, sched.now()); });
  pipe.send(1, 100);
  pipe.send(2, 100);
  sched.run();
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_EQ(deliveries[0], (std::pair<int, SimTime>{1, 100}));
  EXPECT_EQ(deliveries[1], (std::pair<int, SimTime>{2, 200}));
}

TEST(Pipe, InfiniteBandwidthSkipsSerialization) {
  Scheduler sched;
  PipeConfig config;
  config.bandwidth_bps = 0;
  config.propagation_delay = 42;
  Pipe<std::string> pipe(sched, config);
  SimTime delivered_at = -1;
  pipe.set_receiver([&](std::string) { delivered_at = sched.now(); });
  pipe.send("x", 1'000'000);
  sched.run();
  EXPECT_EQ(delivered_at, 42);
}

TEST(Pipe, DropsTailOnOverflow) {
  Scheduler sched;
  PipeConfig config;
  config.bandwidth_bps = 8'000'000;
  config.propagation_delay = 0;
  config.queue_limit = 2;
  Pipe<int> pipe(sched, config);
  int received = 0;
  pipe.set_receiver([&](int) { ++received; });
  pipe.send(1, 100);
  pipe.send(2, 100);
  pipe.send(3, 100);  // dropped
  sched.run();
  EXPECT_EQ(received, 2);
  EXPECT_EQ(pipe.stats().dropped_overflow, 1u);
  EXPECT_EQ(pipe.stats().delivered, 2u);
}

TEST(Pipe, SeveredPipeDropsEverything) {
  Scheduler sched;
  Pipe<int> pipe(sched, PipeConfig{});
  int received = 0;
  pipe.set_receiver([&](int) { ++received; });
  pipe.set_up(false);
  pipe.send(1, 100);
  sched.run();
  EXPECT_EQ(received, 0);

  // Severing mid-flight drops in-flight payloads too.
  pipe.set_up(true);
  pipe.send(2, 100);
  pipe.set_up(false);
  sched.run();
  EXPECT_EQ(received, 0);
}

TEST(Pipe, StatsCountBytes) {
  Scheduler sched;
  Pipe<int> pipe(sched, PipeConfig{});
  pipe.set_receiver([](int) {});
  pipe.send(1, 100);
  pipe.send(2, 200);
  sched.run();
  EXPECT_EQ(pipe.stats().bytes_delivered, 300u);
  EXPECT_EQ(pipe.stats().enqueued, 2u);
}

TEST(Duplex, DirectionsAreIndependent) {
  Scheduler sched;
  Duplex<int> duplex(sched, PipeConfig{});
  int a_got = 0;
  int b_got = 0;
  duplex.a_to_b().set_receiver([&](int v) { b_got = v; });
  duplex.b_to_a().set_receiver([&](int v) { a_got = v; });
  duplex.a_to_b().send(1, 10);
  duplex.b_to_a().send(2, 10);
  sched.run();
  EXPECT_EQ(b_got, 1);
  EXPECT_EQ(a_got, 2);
}

TEST(Link, SerializationMatchesWideArithmetic) {
  // serialization_delay divides in 64 bits up to kNarrowSerializationBytes
  // and in 128 bits beyond; both must agree with the plain 128-bit formula,
  // including where the quotient overflows SimTime.
  const std::uint64_t sizes[] = {0,     1, 54, 1514, 65535, kNarrowSerializationBytes,
                                 kNarrowSerializationBytes + 1};
  const std::uint64_t bandwidths[] = {1, 100'000'000, 1'000'000'000, UINT64_MAX};
  for (const std::uint64_t size : sizes) {
    for (const std::uint64_t bandwidth : bandwidths) {
      SCOPED_TRACE(::testing::Message() << size << " bytes at " << bandwidth << " bps");
      const auto wide =
          static_cast<SimTime>(static_cast<__int128>(size) * 8 * kSecond / bandwidth);
      PipeConfig config;
      config.bandwidth_bps = bandwidth;
      config.propagation_delay = 0;
      config.queue_limit = 0;
      EXPECT_EQ(idle_pipe_latency(config, size), wide);

      Scheduler sched;
      Pipe<int> pipe(sched, config);
      SimTime delivered_at = -1;
      pipe.set_receiver([&](int) { delivered_at = sched.now(); });
      pipe.send(0, size);
      sched.run();
      // A quotient that wraps SimTime negative lands in the past: clamped.
      EXPECT_EQ(delivered_at, std::max<SimTime>(wide, 0));
    }
  }
}

// Batches reach the receiver by reference, and the pipe keeps each slot's
// storage: after warm-up a single-item batch allocates nothing from the
// thread slab. A send from inside the receiver lands in a later batch, in
// order, without touching the batch being delivered; a receiver that
// throws still hands its slot back.
TEST(Pipe, BatchDeliveryReusesSlotCapacity) {
  Scheduler sched;
  Pipe<int> pipe(sched, PipeConfig{0, 10, 0});
  std::vector<std::vector<int>> batches;
  batches.reserve(64);
  bool resend = false;
  bool fail = false;
  pipe.set_batch_receiver([&](PayloadBatch<int>& items) {
    if (fail) {
      fail = false;
      throw std::runtime_error("receiver failed");
    }
    std::vector<int> got;
    for (const BatchItem<int>& item : items) got.push_back(item.payload);
    batches.push_back(std::move(got));
    if (resend) {
      resend = false;
      pipe.send(100, 8);
      pipe.send(101, 8);
      EXPECT_EQ(items.size(), 1u) << "a send from the receiver reused the delivered slot";
      EXPECT_EQ(items[0].payload, 7);
    }
  });
  auto deliver_one = [&](int value) {
    pipe.send(value, 8);
    sched.run();
  };
  for (int i = 0; i < 4; ++i) deliver_one(i);  // warm-up: slot, heap, scheduler chunk

  const std::uint64_t allocs_before = mem::thread_slab().stats().allocs;
  for (int i = 0; i < 32; ++i) deliver_one(i);
  EXPECT_EQ(mem::thread_slab().stats().allocs, allocs_before);

  batches.clear();
  resend = true;
  deliver_one(7);
  EXPECT_EQ(batches, (std::vector<std::vector<int>>{{7}, {100, 101}}));

  fail = true;
  pipe.send(8, 8);
  EXPECT_THROW(sched.run(), std::runtime_error);
  batches.clear();
  deliver_one(9);
  EXPECT_EQ(batches, (std::vector<std::vector<int>>{{9}}));
  EXPECT_EQ(pipe.stats().delivered, 4u + 32u + 3u + 1u + 1u);
}

}  // namespace
}  // namespace attain::sim
