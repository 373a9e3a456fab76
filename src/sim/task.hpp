// Type-erased void() callable for scheduler events. std::function<void()>
// has a ~16-byte small-buffer: every data-plane pipe-delivery lambda (which
// captures the in-flight pkt::Packet) would spill to the general heap, one
// malloc/free per frame per hop. Task keeps an inline buffer sized for the
// fattest hot-path lambda; the rare oversized callable lives on the calling
// thread's slab pool (mem::thread_slab()), which recycles it.
//
// Payloads that wait in bulk do not ride in callables at all: the
// controller backlog keeps its envelopes in a sim::Lane, and control-plane
// pipes deliver envelopes in batches held by the pipe. What still carries
// an envelope (an injector's delayed send, a scalar Pipe<chan::Envelope>)
// is rare and spills.
//
// The scheduler never moves a Task: each event slot owns one, at() builds
// the callable in it with emplace(), and dispatch invokes it where it
// lies. Moving a Task still works (it relocates an inline callable through
// its vtable), but no event pays for it.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

#include "common/arena.hpp"

namespace attain::sim {

class Task {
 public:
  /// Sized for the largest hot callable, Pipe<pkt::Packet>'s delivery
  /// lambda: `this`, a 112-byte Packet and its size (sim/link.hpp asserts
  /// it fits). An event slot is this plus 48 bytes.
  static constexpr std::size_t kInlineSize = 128;

  /// True when emplacing an `F` cannot throw: the callable fits inline and
  /// its construction from `F` is noexcept.
  template <typename F>
  static constexpr bool kNothrowEmplace =
      sizeof(std::decay_t<F>) <= kInlineSize &&
      std::is_nothrow_constructible_v<std::decay_t<F>, F>;

  Task() noexcept = default;
  Task(std::nullptr_t) noexcept {}

  template <typename F, typename = std::enable_if_t<
                            !std::is_same_v<std::decay_t<F>, Task> &&
                            std::is_invocable_r_v<void, std::decay_t<F>&>>>
  Task(F&& f) {
    emplace(std::forward<F>(f));
  }

  Task(Task&& other) noexcept { steal(other); }

  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      steal(other);
    }
    return *this;
  }

  Task& operator=(std::nullptr_t) noexcept {
    destroy();
    return *this;
  }

  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;

  ~Task() { destroy(); }

  /// Constructs `f` directly in this Task, which must be empty. If the
  /// construction throws, the Task stays empty.
  template <typename F>
  void emplace(F&& f) {
    using Fn = std::decay_t<F>;
    static_assert(!std::is_same_v<Fn, Task>, "pass the callable itself, not a Task");
    static_assert(std::is_invocable_r_v<void, Fn&>, "a Task runs a void() callable");
    static_assert(alignof(Fn) <= alignof(std::max_align_t),
                  "over-aligned callables are not supported");
    if constexpr (sizeof(Fn) <= kInlineSize) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
    } else {
      void* heap = mem::thread_slab().allocate(sizeof(Fn));
      try {
        ::new (heap) Fn(std::forward<F>(f));
      } catch (...) {
        mem::thread_slab().deallocate(heap, sizeof(Fn));
        throw;
      }
      heap_ = heap;
    }
    vt_ = &vtable_of<Fn>;
  }

  explicit operator bool() const noexcept { return vt_ != nullptr; }

  void operator()() { vt_->invoke(target()); }

  /// True when the callable lives in the inline buffer (introspection for
  /// tests asserting the hot-path lambdas stay allocation-free).
  bool inline_storage() const noexcept { return vt_ != nullptr && heap_ == nullptr; }

 private:
  struct VTable {
    void (*invoke)(void*);
    void (*move_construct)(void* dst, void* src);  // src destroyed
    void (*destroy)(void*);
    std::size_t size;  // sizeof the callable: what a slab block was sized for
  };

  template <typename Fn>
  static constexpr VTable vtable_of{
      [](void* p) { (*static_cast<Fn*>(p))(); },
      [](void* dst, void* src) {
        ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
        static_cast<Fn*>(src)->~Fn();
      },
      [](void* p) { static_cast<Fn*>(p)->~Fn(); },
      sizeof(Fn),
  };

  void* target() noexcept { return heap_ != nullptr ? heap_ : static_cast<void*>(buf_); }

  void steal(Task& other) noexcept {
    vt_ = other.vt_;
    heap_ = other.heap_;
    if (vt_ != nullptr && heap_ == nullptr) {
      vt_->move_construct(buf_, other.buf_);
    }
    other.vt_ = nullptr;
    other.heap_ = nullptr;
  }

  void destroy() noexcept {
    if (vt_ == nullptr) return;
    vt_->destroy(target());
    if (heap_ != nullptr) {
      mem::thread_slab().deallocate(heap_, vt_->size);
      heap_ = nullptr;
    }
    vt_ = nullptr;
  }

  const VTable* vt_{nullptr};
  void* heap_{nullptr};
  alignas(std::max_align_t) unsigned char buf_[kInlineSize];
};

}  // namespace attain::sim
