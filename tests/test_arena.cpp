// Edge cases of the arena/slab layer (common/arena.hpp): block-chain
// growth, alignment, slab freelist recycling and class lookup, and the
// sim::Task inline/overflow split. The
// whole-system consequence (zero steady-state allocations) is pinned
// separately in test_memory_guard.cpp.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/arena.hpp"
#include "packet/packet.hpp"
#include "sim/lane.hpp"
#include "sim/link.hpp"
#include "sim/task.hpp"

namespace attain::mem {
namespace {

TEST(Arena, BumpsWithinOneBlock) {
  Arena arena(1024);
  void* a = arena.allocate(100);
  void* b = arena.allocate(100);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a, b);
  EXPECT_EQ(arena.stats().block_count, 1u);
  EXPECT_EQ(arena.stats().bytes_in_use, 200u);
  EXPECT_EQ(arena.stats().allocations, 2u);
}

TEST(Arena, GrowsChainWhenBlockExhausted) {
  Arena arena(256);
  for (int i = 0; i < 64; ++i) arena.allocate(64);
  EXPECT_GT(arena.stats().block_count, 1u);
  EXPECT_EQ(arena.stats().bytes_in_use, 64u * 64u);
  EXPECT_GE(arena.stats().bytes_reserved, arena.stats().bytes_in_use);
}

TEST(Arena, BlockSizesGrowGeometricallyUpToCap) {
  Arena arena(1024);
  // Push well past several doublings; reserved capacity must stay within
  // a small constant factor of use (geometric growth, not linear chains).
  constexpr std::size_t kTotal = 3 * 1024 * 1024;
  for (std::size_t done = 0; done < kTotal; done += 512) arena.allocate(512);
  EXPECT_LT(arena.stats().bytes_reserved, 2 * kTotal + Arena::kMaxBlockSize);
  EXPECT_LT(arena.stats().block_count, 64u);  // ~log growth then capped-size blocks
}

TEST(Arena, OversizedRequestGetsDedicatedBlock) {
  Arena arena(1024);
  void* big = arena.allocate(Arena::kMaxBlockSize * 2);
  ASSERT_NE(big, nullptr);
  std::memset(big, 0xab, Arena::kMaxBlockSize * 2);  // must be fully usable
  EXPECT_GE(arena.stats().bytes_reserved, Arena::kMaxBlockSize * 2);
}

TEST(Arena, AlignmentIsRespected) {
  Arena arena(1024);
  arena.allocate(1);  // misalign the cursor
  void* p = arena.allocate(8, 8);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 8, 0u);
  arena.allocate(3, 1);
  void* q = arena.allocate(16, alignof(std::max_align_t));
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(q) % alignof(std::max_align_t), 0u);
}

TEST(SlabPool, RecyclesThroughFreelist) {
  SlabPool pool(4096);
  void* a = pool.allocate(100);  // class 128
  pool.deallocate(a, 100);
  void* b = pool.allocate(120);  // same class: must pop the freelist
  EXPECT_EQ(a, b);
  EXPECT_EQ(pool.stats().freelist_hits, 1u);
  EXPECT_EQ(pool.stats().arena_refills, 1u);
  pool.deallocate(b, 120);
}

TEST(SlabPool, ClassSizesArePowerOfTwoCeilings) {
  EXPECT_EQ(SlabPool::class_size(1), SlabPool::kMinClass);
  EXPECT_EQ(SlabPool::class_size(16), 16u);
  EXPECT_EQ(SlabPool::class_size(17), 32u);
  EXPECT_EQ(SlabPool::class_size(100), 128u);
  EXPECT_EQ(SlabPool::class_size(4096), 4096u);
}

TEST(SlabPool, OversizeFallsThroughToHeap) {
  SlabPool pool(4096);
  void* p = pool.allocate(SlabPool::kMaxClass + 1);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(pool.stats().oversize_allocs, 1u);
  pool.deallocate(p, SlabPool::kMaxClass + 1);
  EXPECT_EQ(pool.stats().bytes_live, 0u);
}

TEST(SlabPool, OversizeRecyclesExactSizes) {
  SlabPool pool(4096);
  // Steady-state doubling reallocs of a big container hit the same exact
  // sizes run after run; freeing then re-requesting a size must recycle.
  void* a = pool.allocate(SlabPool::kMaxClass + 1);
  void* b = pool.allocate(SlabPool::kMaxClass * 2);
  pool.deallocate(a, SlabPool::kMaxClass + 1);
  pool.deallocate(b, SlabPool::kMaxClass * 2);

  void* b2 = pool.allocate(SlabPool::kMaxClass * 2);  // exact-size match
  void* a2 = pool.allocate(SlabPool::kMaxClass + 1);
  EXPECT_EQ(b2, b);
  EXPECT_EQ(a2, a);
  EXPECT_EQ(pool.stats().oversize_hits, 2u);
  EXPECT_EQ(pool.stats().oversize_allocs, 2u);  // only the cold pair hit the heap
  pool.deallocate(a2, SlabPool::kMaxClass + 1);
  pool.deallocate(b2, SlabPool::kMaxClass * 2);
}

TEST(SlabPool, BytesLiveAndHighWaterAccountClassSizes) {
  SlabPool pool(4096);
  void* a = pool.allocate(100);  // 128
  void* b = pool.allocate(300);  // 512
  EXPECT_EQ(pool.stats().bytes_live, 128u + 512u);
  pool.deallocate(a, 100);
  EXPECT_EQ(pool.stats().bytes_live, 512u);
  EXPECT_GE(pool.stats().high_water, 128u + 512u);
  pool.deallocate(b, 300);
}

TEST(SlabPool, SteadyStateWorkloadStopsRefilling) {
  SlabPool pool;
  // Simulated run loop: allocate a frame buffer + action list, free both.
  // After the first iteration every allocation must be a freelist hit.
  for (int run = 0; run < 50; ++run) {
    void* frame = pool.allocate(1500);
    void* actions = pool.allocate(64);
    pool.deallocate(actions, 64);
    pool.deallocate(frame, 1500);
  }
  EXPECT_EQ(pool.stats().arena_refills, 2u);
  EXPECT_EQ(pool.stats().freelist_hits, 2u * 50u - 2u);
}

TEST(SlabAllocatorTest, VectorRoundTripsThroughThreadSlab) {
  const std::uint64_t hits_before = thread_slab().stats().allocs;
  {
    mem::vector<int> v;
    for (int i = 0; i < 1000; ++i) v.push_back(i);
    EXPECT_EQ(v[999], 999);
  }
  EXPECT_GT(thread_slab().stats().allocs, hits_before);
}

TEST(SlabAllocatorTest, RebindWorksAcrossContainers) {
  mem::map<std::string, int> m;
  m["alpha"] = 1;
  m["beta"] = 2;
  EXPECT_EQ(m.at("alpha"), 1);
  mem::unordered_map<int, int> u;
  for (int i = 0; i < 100; ++i) u[i] = i * i;
  EXPECT_EQ(u.at(9), 81);
  mem::deque<int> d;
  d.push_back(1);
  d.push_front(0);
  EXPECT_EQ(d.front(), 0);
}

// --- sim::Task ------------------------------------------------------------

TEST(Task, SmallCallableStaysInline) {
  int hits = 0;
  sim::Task t([&hits] { ++hits; });
  EXPECT_TRUE(t.inline_storage());
  t();
  EXPECT_EQ(hits, 1);
}

TEST(Task, OversizedCallableOverflowsToSlab) {
  std::array<char, sim::Task::kInlineSize + 64> big{};
  big[0] = 42;
  int result = 0;
  sim::Task t([big, &result] { result = big[0]; });
  EXPECT_FALSE(t.inline_storage());
  t();
  EXPECT_EQ(result, 42);
}

TEST(Task, MoveTransfersOwnership) {
  auto owner = std::make_unique<int>(7);
  sim::Task a([p = std::move(owner)] { return; });
  sim::Task b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(static_cast<bool>(b));
  b = nullptr;
  EXPECT_FALSE(static_cast<bool>(b));
}

TEST(Task, InlineBufferFitsPipeDeliveryLambda) {
  // The scheduler's hottest callables must be built in their event slots:
  // Pipe<pkt::Packet>'s per-frame delivery, a batching pipe's burst event
  // and a lane's head event. A regression that grows one past the inline
  // buffer would silently reintroduce per-event slab traffic, so drive the
  // real ones through a warmed-up round and count the thread slab's
  // allocations. (sim/link.hpp and sim/lane.hpp assert the fit at compile
  // time too.)
  sim::Scheduler sched;
  pkt::TcpHeader tcp;
  tcp.dst_port = 80;
  const pkt::Packet packet =
      pkt::make_tcp(pkt::MacAddress::from_u64(1), pkt::MacAddress::from_u64(2),
                    pkt::Ipv4Address::parse("10.0.0.1"), pkt::Ipv4Address::parse("10.0.0.2"),
                    tcp, 100, 0);
  const sim::PipeConfig config{0, 10, 0};
  std::size_t delivered = 0;
  sim::Pipe<pkt::Packet> scalar(sched, config);
  scalar.set_receiver([&](pkt::Packet&&) { ++delivered; });
  sim::Pipe<pkt::Packet> batched(sched, config);
  batched.set_batch_receiver([&](sim::PayloadBatch<pkt::Packet>& batch) {
    delivered += batch.size();
  });
  sim::Lane<pkt::Packet> lane(sched, [&](pkt::Packet&) { ++delivered; });

  constexpr int kSends = 64;
  auto round = [&] {
    const SimTime start = sched.now();
    for (int i = 0; i < kSends; ++i) {
      scalar.send(packet, 100);
      batched.send(packet, 100);  // the scalar send between splits every burst
      lane.push(sched.reserve(start + 1 + i), pkt::Packet(packet));
    }
    sched.run();
  };
  round();  // warm-up: slot chunks, heap, batch storage
  const std::uint64_t before = thread_slab().stats().allocs;
  round();
  // The lane's record chunk, once for the whole burst; nothing per event.
  EXPECT_EQ(thread_slab().stats().allocs - before, 1u);
  EXPECT_EQ(delivered, 2u * 3u * kSends);
}

TEST(SlabPool, ClassLookupMatchesDoublingLoop) {
  for (std::size_t size = 0; size <= SlabPool::kMaxClass + 1; ++size) {
    int want_index = -1;
    std::size_t want_size = size;
    if (size <= SlabPool::kMaxClass) {
      want_index = 0;
      want_size = SlabPool::kMinClass;
      while (want_size < size) {
        want_size <<= 1;
        ++want_index;
      }
    }
    ASSERT_EQ(SlabPool::class_index(size), want_index) << "size " << size;
    ASSERT_EQ(SlabPool::class_size(size), want_size) << "size " << size;
  }
  EXPECT_EQ(SlabPool::class_index(SlabPool::kMaxClass),
            static_cast<int>(SlabPool::kClassCount) - 1);
}

TEST(SlabPool, CountsRefillBytesPerClass) {
  SlabPool pool(4096);
  void* a = pool.allocate(100);  // 128-byte class (index 3)
  void* b = pool.allocate(128);
  void* c = pool.allocate(5000);  // 8 KiB class (index 9)
  pool.deallocate(a, 100);
  void* d = pool.allocate(90);  // freelist hit: no refill
  const SlabPool::Stats& stats = pool.stats();
  EXPECT_EQ(stats.class_refill_bytes[3], 2u * 128u);
  EXPECT_EQ(stats.class_refill_bytes[9], 8192u);
  std::size_t total = 0;
  for (const std::size_t bytes : stats.class_refill_bytes) total += bytes;
  EXPECT_EQ(total, 2u * 128u + 8192u);
  pool.deallocate(b, 128);
  pool.deallocate(c, 5000);
  pool.deallocate(d, 90);
}

}  // namespace
}  // namespace attain::mem
