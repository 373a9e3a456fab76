// The attack language's storage Δ (§V-C): named double-ended queues with
// the six operations of §V-D (PREPEND, APPEND, EXAMINEFRONT, EXAMINEEND,
// SHIFT, POP). Deques hold Values, so the same mechanism serves counters,
// general variables, and message capture for replay/reordering (§VIII-A).
//
// Deques are addressable two ways: by name (the DSL surface, throws
// StorageError) and by slot — the declaration-order index, interned once by
// the rule compiler so the hot path never hashes a name or throws. The
// peek_*/size_at slot accessors report emptiness via nullptr instead of an
// exception; slots stay stable for the life of the store (declare only
// appends, reset only re-assigns contents).
#pragma once

#include <cstddef>
#include <deque>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "attain/lang/value.hpp"
#include "common/arena.hpp"

namespace attain::lang {

class StorageError : public std::runtime_error {
 public:
  explicit StorageError(const std::string& what) : std::runtime_error(what) {}
};

class DequeStore {
 public:
  /// Declares δ with optional initial contents. Redeclaration throws.
  void declare(const std::string& name, std::vector<Value> initial = {});
  bool exists(const std::string& name) const { return index_.contains(name); }

  // §V-D operations; all throw StorageError on an undeclared deque, and
  // the examine/remove operations throw on an empty deque (an attack-
  // description bug the executor surfaces via the monitor).
  void prepend(const std::string& name, Value value);
  void append(const std::string& name, Value value);
  Value examine_front(const std::string& name) const;
  Value examine_end(const std::string& name) const;
  Value shift(const std::string& name);
  Value pop(const std::string& name);

  std::size_t size(const std::string& name) const;
  bool empty(const std::string& name) const { return size(name) == 0; }

  /// Resets every deque to its declared initial contents (used when an
  /// attack is re-armed).
  void reset();

  /// Declared names in sorted order.
  std::vector<std::string> names() const;

  // Slot surface — used by compiled rule programs.

  /// Slot i is the i-th declare() call.
  std::size_t slot_count() const { return deques_.size(); }

  /// Front/back element of slot i, or nullptr when empty. The pointer is
  /// valid until the deque is next mutated.
  const Value* peek_front(std::size_t slot) const {
    const auto& d = deques_[slot];
    return d.empty() ? nullptr : &d.front();
  }
  const Value* peek_end(std::size_t slot) const {
    const auto& d = deques_[slot];
    return d.empty() ? nullptr : &d.back();
  }
  std::size_t size_at(std::size_t slot) const { return deques_[slot].size(); }

 private:
  const mem::deque<Value>& require(const std::string& name) const;
  mem::deque<Value>& require(const std::string& name);

  // Parallel, declaration-ordered; index_ maps name -> slot.
  std::vector<mem::deque<Value>> deques_;
  std::vector<std::vector<Value>> initial_;
  std::map<std::string, std::size_t> index_;
};

}  // namespace attain::lang
