#include "common/arena.hpp"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <mutex>

namespace attain::mem {

// ---------------------------------------------------------------------------
// Arena
// ---------------------------------------------------------------------------

struct Arena::Block {
  Block* prev{nullptr};
  std::size_t capacity{0};
  std::size_t used{0};
  // Payload follows the header, max_align_t-aligned.
  unsigned char* data() {
    return reinterpret_cast<unsigned char*>(this) + header_size();
  }
  static constexpr std::size_t header_size() {
    return (sizeof(Block) + alignof(std::max_align_t) - 1) &
           ~(alignof(std::max_align_t) - 1);
  }
};

Arena::Arena(std::size_t first_block_size)
    : first_block_size_(std::max<std::size_t>(first_block_size, 256)) {}

Arena::~Arena() {
  while (Block* b = current_) {
    current_ = b->prev;
    ::operator delete(static_cast<void*>(b));
  }
}

void* Arena::allocate(std::size_t size, std::size_t align) {
  ++stats_.allocations;
  if (size == 0) size = 1;
  Block* b = current_;
  std::size_t aligned = b != nullptr ? (b->used + align - 1) & ~(align - 1) : 0;
  if (b == nullptr || aligned + size > b->capacity) {
    // Chain a fresh block: geometric growth, capped, and big enough for
    // oversized requests in one piece.
    std::size_t payload =
        b != nullptr ? std::min(kMaxBlockSize, b->capacity * 2) : first_block_size_;
    payload = std::max(payload, size + align);
    b = new (::operator new(Block::header_size() + payload)) Block{current_, payload, 0};
    current_ = b;
    stats_.bytes_reserved += payload;
    ++stats_.block_count;
    aligned = 0;
  }
  b->used = aligned + size;
  stats_.bytes_in_use += size;
  return b->data() + aligned;
}

// ---------------------------------------------------------------------------
// SlabPool
// ---------------------------------------------------------------------------

namespace {
// Oversize header, sized to preserve max_align_t alignment of the payload.
constexpr std::size_t big_header_size(std::size_t node_size) {
  return (node_size + alignof(std::max_align_t) - 1) & ~(alignof(std::max_align_t) - 1);
}
}  // namespace

int SlabPool::class_index(std::size_t size) {
  if (size > kMaxClass) return -1;
  if (size <= kMinClass) return 0;
  // The smallest power of two >= size is 2^bit_width(size - 1).
  static_assert(kMinClass == 16);
  return static_cast<int>(std::bit_width(size - 1)) - 4;
}

std::size_t SlabPool::class_size(std::size_t size) {
  const int index = class_index(size);
  if (index < 0) return size;
  return kMinClass << index;
}

SlabPool::~SlabPool() {
  while (BigNode* node = big_free_) {
    big_free_ = node->next;
    ::operator delete(node);
  }
}

void* SlabPool::allocate_oversize(std::size_t size) {
  stats_.bytes_live += size;
  stats_.high_water = std::max(stats_.high_water, stats_.bytes_live);
  for (BigNode** prev = &big_free_; *prev != nullptr; prev = &(*prev)->next) {
    BigNode* node = *prev;
    if (node->size == size) {
      *prev = node->next;
      ++stats_.oversize_hits;
      return reinterpret_cast<unsigned char*>(node) + big_header_size(sizeof(BigNode));
    }
  }
  ++stats_.oversize_allocs;
  void* raw = ::operator new(big_header_size(sizeof(BigNode)) + size);
  BigNode* node = new (raw) BigNode{nullptr, size};
  return reinterpret_cast<unsigned char*>(node) + big_header_size(sizeof(BigNode));
}

void SlabPool::deallocate_oversize(void* p, std::size_t size) {
  stats_.bytes_live -= size;
  BigNode* node =
      reinterpret_cast<BigNode*>(static_cast<unsigned char*>(p) - big_header_size(sizeof(BigNode)));
  node->next = big_free_;
  node->size = size;
  big_free_ = node;
}

void* SlabPool::allocate(std::size_t size) {
  ++stats_.allocs;
  const int index = class_index(size);
  if (index < 0) return allocate_oversize(size);
  const std::size_t rounded = kMinClass << index;
  stats_.bytes_live += rounded;
  stats_.high_water = std::max(stats_.high_water, stats_.bytes_live);
  if (FreeNode* node = free_[index]) {
    free_[index] = node->next;
    ++stats_.freelist_hits;
    return node;
  }
  ++stats_.arena_refills;
  stats_.class_refill_bytes[index] += rounded;
  return arena_.allocate(rounded);
}

void SlabPool::deallocate(void* p, std::size_t size) {
  if (p == nullptr) return;
  const int index = class_index(size);
  if (index < 0) {
    deallocate_oversize(p, size);
    return;
  }
  stats_.bytes_live -= kMinClass << index;
  FreeNode* node = static_cast<FreeNode*>(p);
  node->next = free_[index];
  free_[index] = node;
}

// ---------------------------------------------------------------------------
// Thread slabs
// ---------------------------------------------------------------------------

namespace {

// Keeps every thread slab reachable for the process lifetime: cross-thread
// frees may recycle another thread's backing memory, so pools must never
// die (and LeakSanitizer sees them as still reachable, not leaked).
struct SlabRegistry {
  std::mutex mu;
  std::vector<SlabPool*> pools;
};

SlabRegistry& registry() {
  static SlabRegistry* r = new SlabRegistry;  // leaked: outlives every thread
  return *r;
}

thread_local std::uint64_t t_run_boundaries = 0;

}  // namespace

SlabPool& detail::make_thread_slab() {
  SlabPool* pool = new SlabPool;
  {
    SlabRegistry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    r.pools.push_back(pool);
  }
  t_thread_slab = pool;
  return *pool;
}

SlabPool::Stats all_slabs_stats() {
  SlabPool::Stats sum;
  SlabRegistry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (const SlabPool* pool : r.pools) {
    const SlabPool::Stats& s = pool->stats();
    sum.allocs += s.allocs;
    sum.freelist_hits += s.freelist_hits;
    sum.arena_refills += s.arena_refills;
    sum.oversize_allocs += s.oversize_allocs;
    sum.oversize_hits += s.oversize_hits;
    sum.bytes_live += s.bytes_live;
    sum.high_water += s.high_water;
    for (std::size_t c = 0; c < SlabPool::kClassCount; ++c) {
      sum.class_refill_bytes[c] += s.class_refill_bytes[c];
    }
  }
  return sum;
}

void run_boundary() { ++t_run_boundaries; }

std::uint64_t run_boundaries() { return t_run_boundaries; }

}  // namespace attain::mem
