// Arena/slab memory architecture for the end-to-end hot path.
//
// Three layers, bottom up:
//
//  - Arena: a chained-block bump allocator: allocation advances a cursor
//    through geometrically growing blocks; nothing is freed individually,
//    and the blocks go back to the heap only when the arena dies. Its
//    byte/block stats make the reservation visible to benches and tests.
//    Each SlabPool owns one as its backing store.
//
//  - SlabPool: power-of-two size-class freelists carved out of an Arena.
//    allocate/deallocate recycle blocks of a class in LIFO order; once a
//    workload's working set has been seen, every subsequent allocation is
//    a freelist pop — zero malloc/free in steady state. Requests beyond
//    the largest class fall through to ::operator new (counted).
//
//  - SlabAllocator<T>: a stateless std-allocator over the calling thread's
//    SlabPool (thread_slab()). The repo's hot containers — Bytes,
//    ofp::ActionList, flow-table indexes, scheduler queues — are typedef'd
//    onto it, which is what drives the simulate loop's steady-state
//    allocation count to zero (tests/test_memory_guard.cpp pins this).
//
// Thread slabs are registered in a process-global registry and deliberately
// never destroyed ("leak by design"): a container allocated on one thread
// may be freed on another (the sweep engine ships results across threads),
// and the freeing thread's freelist may hand that block out again later —
// so backing memory must outlive every thread. The registry keeps the
// pools reachable, which also keeps LeakSanitizer quiet.
//
// Lifetime rules per layer are documented in docs/architecture.md
// ("Memory architecture").
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <new>
#include <unordered_map>
#include <vector>

namespace attain::mem {

/// Chained-block bump arena. Not thread-safe; one arena belongs to one
/// owner (a SlabPool).
class Arena {
 public:
  static constexpr std::size_t kDefaultBlockSize = 64 * 1024;
  static constexpr std::size_t kMaxBlockSize = 1024 * 1024;

  struct Stats {
    std::size_t bytes_in_use{0};    // handed out by allocate() so far
    std::size_t bytes_reserved{0};  // sum of block payload capacities
    std::size_t block_count{0};
    std::uint64_t allocations{0};   // allocate() calls over the arena's lifetime
  };

  explicit Arena(std::size_t first_block_size = kDefaultBlockSize);
  ~Arena();

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Bump-allocates `size` bytes aligned to `align` (a power of two, at
  /// most alignof(std::max_align_t)). Never returns nullptr; chains a new
  /// block when the current one is exhausted. Oversized requests get a
  /// dedicated block.
  void* allocate(std::size_t size, std::size_t align = alignof(std::max_align_t));

  const Stats& stats() const { return stats_; }

 private:
  struct Block;

  Block* current_{nullptr};  // newest block; each block links to the one before
  std::size_t first_block_size_;
  Stats stats_;
};

/// Size-class slab pool over an Arena. allocate() pops the class freelist
/// or bumps the arena; deallocate() pushes back. Not thread-safe.
class SlabPool {
 public:
  static constexpr std::size_t kMinClass = 16;  // one freelist pointer + slack
  /// Large enough that big steady-state containers (the scheduler's slot
  /// pool, its event queue, flow-table slot vectors) recycle their doubling
  /// reallocations through freelists instead of the general heap. Beyond:
  /// ::operator new (counted).
  static constexpr std::size_t kMaxClass = 4 * 1024 * 1024;
  static constexpr std::size_t kClassCount = 19;  // 16,32,...,4 MiB

  struct Stats {
    std::uint64_t allocs{0};          // all allocate() calls
    std::uint64_t freelist_hits{0};   // served by recycling
    std::uint64_t arena_refills{0};   // served by bumping the arena
    std::uint64_t oversize_allocs{0}; // fell through to ::operator new
    std::uint64_t oversize_hits{0};   // oversize served by the exact-size freelist
    std::size_t bytes_live{0};        // currently handed out (rounded to class)
    std::size_t high_water{0};
    /// Arena bytes each size class has taken (its refills x class size):
    /// where the pool's reservation went.
    std::size_t class_refill_bytes[kClassCount]{};
  };

  explicit SlabPool(std::size_t first_block_size = Arena::kDefaultBlockSize)
      : arena_(first_block_size) {}
  /// Frees the blocks parked on the oversize freelist (the size classes
  /// live in the arena, which frees itself). Blocks still handed out are
  /// the caller's to return first.
  ~SlabPool();
  // Owns raw blocks through the freelists.
  SlabPool(const SlabPool&) = delete;
  SlabPool& operator=(const SlabPool&) = delete;

  void* allocate(std::size_t size);
  void deallocate(void* p, std::size_t size);

  const Stats& stats() const { return stats_; }
  const Arena::Stats& arena_stats() const { return arena_.stats(); }

  /// Rounded allocation size for `size` (what bytes_live accounts).
  static std::size_t class_size(std::size_t size);
  /// Size class serving `size` (0 for up to kMinClass bytes, each next one
  /// doubling), or -1 beyond kMaxClass.
  static int class_index(std::size_t size);

 private:
  struct FreeNode {
    FreeNode* next;
  };
  /// Oversize (> kMaxClass) recycling: a header-prefixed exact-size
  /// freelist. Oversize requests are rare and, in deterministic runs,
  /// repeat the same sizes (vector-doubling capacities), so a short
  /// scanned list recycles them the way the classes recycle small blocks.
  struct BigNode {
    BigNode* next;
    std::size_t size;
  };

  void* allocate_oversize(std::size_t size);
  void deallocate_oversize(void* p, std::size_t size);

  Arena arena_;
  FreeNode* free_[kClassCount]{};
  BigNode* big_free_{nullptr};
  Stats stats_;
};

namespace detail {
/// The calling thread's pool once created. Constant-initialized, so reading
/// it is a plain thread-local load with no initialization guard.
inline constinit thread_local SlabPool* t_thread_slab = nullptr;
/// Cold path of thread_slab(): creates, registers and caches the pool.
SlabPool& make_thread_slab();
}  // namespace detail

/// The calling thread's slab pool. Created on first use, registered in a
/// process-global registry, and never destroyed (see file comment).
inline SlabPool& thread_slab() {
  if (SlabPool* pool = detail::t_thread_slab) [[likely]] return *pool;
  return detail::make_thread_slab();
}

/// Aggregate view over every thread slab ever created (registry-wide sums;
/// other threads' counters are read racily — use for reporting only).
SlabPool::Stats all_slabs_stats();

/// Marks a run (sweep-cell) boundary on this thread: bumps the boundary
/// counter benches key per-cell deltas from. A cell's containers return
/// their blocks to the thread slab as they die; the slab persists by
/// design, so the next cell reuses its freelists.
void run_boundary();

/// Boundaries recorded on this thread (run_boundary() calls).
std::uint64_t run_boundaries();

/// Std-allocator over thread_slab(). Stateless: all instances are equal,
/// memory may be freed on a different thread than it was allocated on.
template <typename T>
struct SlabAllocator {
  using value_type = T;

  SlabAllocator() noexcept = default;
  template <typename U>
  SlabAllocator(const SlabAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(thread_slab().allocate(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    thread_slab().deallocate(p, n * sizeof(T));
  }

  friend bool operator==(const SlabAllocator&, const SlabAllocator&) { return true; }
  friend bool operator!=(const SlabAllocator&, const SlabAllocator&) { return false; }
};

// Slab-backed aliases for the simulator's hot containers.
template <typename T>
using vector = std::vector<T, SlabAllocator<T>>;
template <typename T>
using deque = std::deque<T, SlabAllocator<T>>;
template <typename K, typename V, typename C = std::less<K>>
using map = std::map<K, V, C, SlabAllocator<std::pair<const K, V>>>;
template <typename K, typename V, typename H = std::hash<K>, typename E = std::equal_to<K>>
using unordered_map =
    std::unordered_map<K, V, H, E, SlabAllocator<std::pair<const K, V>>>;

}  // namespace attain::mem
