// flat.hpp — the two containers behind the message path: a FIFO ring and an
// open-addressed integer index.  Both keep their capacity across use, so a
// mailbox or run queue in steady state never touches the heap (std::deque
// frees and reallocates a block every few dozen push/pop pairs; node-based
// hash containers allocate per insert).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

namespace camb {

/// FIFO with random access over a power-of-two ring.  push_back/pop_front
/// are O(1); erase(i) shifts the later elements (order preserved).  Popped
/// slots keep their moved-from values until overwritten.
template <typename T>
class RingQueue {
 public:
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  T& operator[](std::size_t i) { return buf_[(head_ + i) & mask()]; }
  const T& operator[](std::size_t i) const {
    return buf_[(head_ + i) & mask()];
  }
  T& front() { return (*this)[0]; }

  void push_back(T value) {
    if (size_ == buf_.size()) grow();
    buf_[(head_ + size_) & mask()] = std::move(value);
    ++size_;
  }

  void pop_front() {
    head_ = (head_ + 1) & mask();
    --size_;
  }

  /// Remove element i, keeping the others in order (O(1) at the front).
  void erase(std::size_t i) {
    if (i == 0) return pop_front();
    for (; i + 1 < size_; ++i) (*this)[i] = std::move((*this)[i + 1]);
    --size_;
  }

  /// Drop every element for which pred holds, keeping the others in order.
  template <typename Pred>
  void erase_if(Pred pred) {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < size_; ++i) {
      if (!pred((*this)[i])) {
        if (kept != i) (*this)[kept] = std::move((*this)[i]);
        ++kept;
      }
    }
    size_ = kept;
  }

  void clear() {
    head_ = 0;
    size_ = 0;
  }

  /// Make room for n elements, so the next n - size() pushes never grow.
  void reserve(std::size_t n) {
    std::size_t cap = std::max<std::size_t>(8, buf_.size());
    while (cap < n) cap *= 2;
    if (cap != buf_.size()) resize(cap);
  }

 private:
  std::size_t mask() const { return buf_.size() - 1; }

  void grow() { resize(std::max<std::size_t>(8, buf_.size() * 2)); }

  void resize(std::size_t cap) {
    std::vector<T> bigger(cap);
    for (std::size_t i = 0; i < size_; ++i) bigger[i] = std::move((*this)[i]);
    buf_.swap(bigger);
    head_ = 0;
  }

  std::vector<T> buf_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

/// Open-addressed map from an integer key to a small value: linear probing
/// over a power-of-two table, multiplicative (Fibonacci) hashing — a
/// multiply and a shift per lookup, no division, no nodes — and
/// backward-shift deletion, so there are no tombstones and probes stay
/// short at load <= 1/2.  `kEmpty` is reserved: it marks a free cell and
/// may not be used as a key.  Values live in the cells, so a rehash moves
/// them: pointers from find() last until the next insert.
template <typename Key, Key kEmpty, typename Value = int>
class FlatIndex {
 public:
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// The value stored under `key`, or nullptr.
  Value* find(Key key) {
    if (size_ == 0) return nullptr;
    for (std::size_t i = home(key);; i = (i + 1) & mask()) {
      if (cells_[i].key == key) return &cells_[i].value;
      if (cells_[i].key == kEmpty) return nullptr;
    }
  }
  bool contains(Key key) { return find(key) != nullptr; }

  /// Insert `key` (which must be absent) with `value`; returns the stored
  /// value.
  Value& insert(Key key, Value value) {
    if ((size_ + 1) * 2 > cells_.size()) {
      rehash(std::max<std::size_t>(16, cells_.size() * 2));
    }
    ++size_;
    return place(key, std::move(value));
  }

  /// Remove `key`; returns whether it was present.
  bool erase(Key key) {
    if (size_ == 0) return false;
    std::size_t hole = home(key);
    while (cells_[hole].key != key) {
      if (cells_[hole].key == kEmpty) return false;
      hole = (hole + 1) & mask();
    }
    // Backward shift: pull later members of the probe run into the hole
    // whenever the hole lies on their path from their home cell.
    for (std::size_t j = (hole + 1) & mask(); cells_[j].key != kEmpty;
         j = (j + 1) & mask()) {
      const std::size_t h = home(cells_[j].key);
      if (((j - h) & mask()) >= ((j - hole) & mask())) {
        cells_[hole] = std::move(cells_[j]);
        hole = j;
      }
    }
    cells_[hole].key = kEmpty;
    --size_;
    return true;
  }

  void clear() {
    for (Cell& c : cells_) c.key = kEmpty;
    size_ = 0;
  }

 private:
  struct Cell {
    Key key = kEmpty;
    Value value{};
  };

  std::size_t mask() const { return cells_.size() - 1; }

  std::size_t home(Key key) const {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(key) * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  Value& place(Key key, Value value) {
    std::size_t i = home(key);
    while (cells_[i].key != kEmpty) i = (i + 1) & mask();
    cells_[i].key = key;
    cells_[i].value = std::move(value);
    return cells_[i].value;
  }

  void rehash(std::size_t capacity) {
    std::vector<Cell> old(capacity);
    old.swap(cells_);
    shift_ = 64 - static_cast<unsigned>(__builtin_ctzll(capacity));
    for (Cell& c : old) {
      if (c.key != kEmpty) place(c.key, std::move(c.value));
    }
  }

  std::vector<Cell> cells_;
  std::size_t size_ = 0;
  unsigned shift_ = 64;
};

}  // namespace camb
