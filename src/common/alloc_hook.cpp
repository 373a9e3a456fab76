// Counting replacement for the global allocation functions. See
// alloc_hook.hpp for the opt-in contract: this TU is linked only into
// binaries that measure allocations (the test suite, bench_memory,
// bench_injector_overhead), never into attain_lib itself.
//
// The replacements forward to malloc/free, so they compose with
// sanitizers' malloc interposition (ASan still sees every byte) and with
// the slab pools (which sit above operator new, not below it).
#include "common/alloc_hook.hpp"

#include <execinfo.h>
#include <unistd.h>

#include <cstdlib>
#include <new>

namespace {

void* counted_alloc(std::size_t size) {
  if (attain::memhook::g_backtrace_on_alloc.load(std::memory_order_relaxed)) {
    // Drop the flag while printing: backtrace() may allocate internally on
    // its first call (lazy libgcc load), and that must not recurse here.
    attain::memhook::g_backtrace_on_alloc.store(false, std::memory_order_relaxed);
    void* frames[32];
    const int n = backtrace(frames, 32);
    backtrace_symbols_fd(frames, n, STDERR_FILENO);
    [[maybe_unused]] const auto ignored = write(STDERR_FILENO, "----\n", 5);
    attain::memhook::g_backtrace_on_alloc.store(true, std::memory_order_relaxed);
  }
  attain::memhook::g_news.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  return std::malloc(size);
}

void* counted_alloc(std::size_t size, std::align_val_t align) {
  attain::memhook::g_news.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  const std::size_t a = static_cast<std::size_t>(align);
  void* p = nullptr;
  // posix_memalign requires a multiple of sizeof(void*).
  if (posix_memalign(&p, a < sizeof(void*) ? sizeof(void*) : a, size) != 0) return nullptr;
  return p;
}

void counted_free(void* p) {
  if (p == nullptr) return;
  attain::memhook::g_deletes.fetch_add(1, std::memory_order_relaxed);
  std::free(p);
}

const bool g_mark_installed = [] {
  attain::memhook::g_installed.store(true, std::memory_order_relaxed);
  return true;
}();

}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}

void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = counted_alloc(size, align)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size, std::align_val_t align) {
  if (void* p = counted_alloc(size, align)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
  return counted_alloc(size, align);
}

void* operator new[](std::size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
  return counted_alloc(size, align);
}

void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { counted_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { counted_free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { counted_free(p); }
