#include "attain/lang/deque_store.hpp"

namespace attain::lang {

void DequeStore::declare(const std::string& name, std::vector<Value> initial) {
  if (index_.contains(name)) throw StorageError("deque redeclared: " + name);
  index_.emplace(name, deques_.size());
  deques_.emplace_back(initial.begin(), initial.end());
  initial_.push_back(std::move(initial));
}

const mem::deque<Value>& DequeStore::require(const std::string& name) const {
  const auto it = index_.find(name);
  if (it == index_.end()) throw StorageError("undeclared deque: " + name);
  return deques_[it->second];
}

mem::deque<Value>& DequeStore::require(const std::string& name) {
  const auto it = index_.find(name);
  if (it == index_.end()) throw StorageError("undeclared deque: " + name);
  return deques_[it->second];
}

void DequeStore::prepend(const std::string& name, Value value) {
  require(name).push_front(std::move(value));
}

void DequeStore::append(const std::string& name, Value value) {
  require(name).push_back(std::move(value));
}

Value DequeStore::examine_front(const std::string& name) const {
  const auto& d = require(name);
  if (d.empty()) throw StorageError("examine_front on empty deque: " + name);
  return d.front();
}

Value DequeStore::examine_end(const std::string& name) const {
  const auto& d = require(name);
  if (d.empty()) throw StorageError("examine_end on empty deque: " + name);
  return d.back();
}

Value DequeStore::shift(const std::string& name) {
  auto& d = require(name);
  if (d.empty()) throw StorageError("shift on empty deque: " + name);
  Value v = std::move(d.front());
  d.pop_front();
  return v;
}

Value DequeStore::pop(const std::string& name) {
  auto& d = require(name);
  if (d.empty()) throw StorageError("pop on empty deque: " + name);
  Value v = std::move(d.back());
  d.pop_back();
  return v;
}

std::size_t DequeStore::size(const std::string& name) const { return require(name).size(); }

void DequeStore::reset() {
  for (std::size_t i = 0; i < deques_.size(); ++i) {
    deques_[i].assign(initial_[i].begin(), initial_[i].end());
  }
}

std::vector<std::string> DequeStore::names() const {
  std::vector<std::string> out;
  out.reserve(index_.size());
  for (const auto& [name, _] : index_) out.push_back(name);
  return out;
}

}  // namespace attain::lang
