// sim::Lane: a keyed FIFO whose head alone sits in the scheduler. Checks
// FIFO order against at() events at the same instants and across chunk
// boundaries, chunk return after a drain, pushes from inside the consumer,
// a throwing consumer, and destruction with payloads still queued.
#include "sim/lane.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "common/rng.hpp"

namespace attain::sim {
namespace {

TEST(Lane, FifoOrderAcrossChunkBoundariesMatchesAtOrder) {
  // Lane payloads and plain at() events interleave exactly as if every
  // payload had been queued with at() when its key was reserved.
  Scheduler sched;
  std::vector<std::int64_t> fired;
  Lane<std::int64_t> lane(sched, [&](std::int64_t& id) { fired.push_back(id); });
  std::vector<std::tuple<SimTime, std::uint64_t, std::int64_t>> expected;  // (when, seq, id)
  Rng rng(7);
  SimTime lane_time = 0;
  std::size_t at_events = 0;
  std::size_t max_entries = 0;
  constexpr std::int64_t kEvents = 6000;  // several chunks of records
  for (std::int64_t id = 0; id < kEvents; ++id) {
    const std::uint64_t seq = sched.issue_seq();
    if (rng.next_below(3) == 0) {
      const SimTime when = static_cast<SimTime>(rng.next_below(4000));
      sched.at(when, [&fired, id] { fired.push_back(id); });
      expected.emplace_back(when, seq, id);
      ++at_events;
    } else {
      lane_time += static_cast<SimTime>(rng.next_below(2));  // repeats some instants
      const EventKey key = sched.reserve(lane_time);
      lane.push(key, std::int64_t{id});
      expected.emplace_back(key.when, seq, id);
    }
    max_entries = std::max(max_entries, sched.queued_entries());
  }
  std::sort(expected.begin(), expected.end());
  sched.run();
  ASSERT_EQ(fired.size(), expected.size());
  for (std::size_t i = 0; i < fired.size(); ++i) {
    ASSERT_EQ(fired[i], std::get<2>(expected[i])) << "event " << i;
  }
  EXPECT_TRUE(lane.empty());
  EXPECT_EQ(sched.events_executed(), static_cast<std::uint64_t>(kEvents));
  // At most one entry per at() event, plus the lane's one head.
  EXPECT_LE(max_entries, at_events + 1);
}

TEST(Lane, DrainReturnsEveryChunk) {
  Scheduler sched;
  std::uint64_t served = 0;
  Lane<std::uint64_t> lane(sched, [&](std::uint64_t&) { ++served; });
  lane.push(sched.reserve(1), 0);  // warm the scheduler's slot chunk
  sched.run();
  const std::size_t live = mem::thread_slab().stats().bytes_live;

  constexpr std::uint64_t kRecords = 5000;
  for (std::uint64_t i = 0; i < kRecords; ++i) {
    lane.push(sched.reserve(sched.now() + 1 + static_cast<SimTime>(i)), std::uint64_t{i});
  }
  const std::size_t full = mem::thread_slab().stats().bytes_live - live;
  EXPECT_GE(full, 2u * 32 * 1024);  // several chunks
  EXPECT_EQ(full % (32 * 1024), 0u);

  sched.run_until(sched.now() + kRecords / 2);
  const std::size_t half = mem::thread_slab().stats().bytes_live - live;
  EXPECT_LT(half, full);  // drained chunks are already back
  sched.run();
  EXPECT_EQ(served, kRecords + 1);
  EXPECT_EQ(mem::thread_slab().stats().bytes_live, live);
}

TEST(Lane, PushFromConsumerIsQueued) {
  // A consumer serving the last record pushes the next one: the lane is
  // empty at that point, so the push must queue a new head.
  Scheduler sched;
  std::vector<SimTime> at;
  Lane<int>* self = nullptr;
  Lane<int> lane(sched, [&](int& n) {
    at.push_back(sched.now());
    if (n > 0) self->push(sched.reserve(sched.now() + 10), n - 1);
  });
  self = &lane;
  lane.push(sched.reserve(5), 3);
  sched.run();
  EXPECT_EQ(at, (std::vector<SimTime>{5, 15, 25, 35}));
  EXPECT_EQ(sched.queued_entries(), 0u);
}

TEST(Lane, ThrowingConsumerLeavesNextHeadQueued) {
  Scheduler sched;
  std::vector<int> served;
  auto token = std::make_shared<int>(0);  // counts the payloads alive
  struct Payload {
    int id;
    std::shared_ptr<int> token;
  };
  Lane<Payload> lane(sched, [&](Payload& p) {
    if (p.id == 1) throw std::runtime_error("consumer failed");
    served.push_back(p.id);
  });
  for (int id = 1; id <= 3; ++id) lane.push(sched.reserve(id), Payload{id, token});
  EXPECT_EQ(token.use_count(), 4);

  EXPECT_THROW(sched.run(), std::runtime_error);
  EXPECT_EQ(token.use_count(), 3);  // the failed payload was destroyed
  EXPECT_EQ(lane.size(), 2u);
  EXPECT_EQ(sched.queued_entries(), 1u);  // the next head is still queued

  sched.run();
  EXPECT_EQ(served, (std::vector<int>{2, 3}));
  EXPECT_EQ(token.use_count(), 1);
}

TEST(Lane, DestructionReleasesQueuedPayloadsAndChunks) {
  Scheduler sched;
  auto token = std::make_shared<int>(0);
  {
    Lane<std::shared_ptr<int>> warm(sched, [](std::shared_ptr<int>&) {});
    warm.push(sched.reserve(1), nullptr);
    sched.run();  // the scheduler's slot chunk exists from here on
  }
  const std::size_t live = mem::thread_slab().stats().bytes_live;
  {
    Lane<std::shared_ptr<int>> lane(sched, [](std::shared_ptr<int>&) {});
    for (int i = 0; i < 3000; ++i) lane.push(sched.reserve(sched.now() + 1 + i), std::shared_ptr<int>(token));
    EXPECT_EQ(token.use_count(), 3001);
  }
  EXPECT_EQ(token.use_count(), 1);
  // Every record chunk is back. The dead lane's head event stays queued in
  // the scheduler's existing slot chunk and is never run.
  EXPECT_EQ(mem::thread_slab().stats().bytes_live, live);
}

}  // namespace
}  // namespace attain::sim
