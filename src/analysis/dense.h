// Dense epoch-stamped scratch sets and maps over small integer keys.
//
// The analysis passes (the Fig. 3 hook scans, the serial BFS, dot export)
// all need per-iteration visited/parent/seen structures keyed by NodeId --
// dense integers handed out consecutively by StateGraph::intern. Hash sets
// pay for hashing, pointer-chasing and rehash-time allocation on every
// probe, and a fresh unordered_map per BFS round pays its whole setup cost
// again; a dense stamp array pays one byte comparison per probe and resets
// in O(1) by bumping an epoch counter, so the backing storage is reused
// across iterations without ever being cleared (membership means
// stamp[key] == current epoch).
//
// Both containers auto-grow to the largest key inserted, so they track a
// growing StateGraph without explicit resize calls. They are scratch
// structures: single-threaded, no erase, iteration (DenseIndexMap::keys)
// in insertion order.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace boosting::analysis {

// Set of integer keys with O(1) clear-free reset. Membership is
// stamp_[key] == epoch_; reset() bumps the epoch, instantly invalidating
// every stamped entry. On the (once per 2^32 resets) epoch wrap the stamp
// array is zero-filled so stale stamps from the previous cycle can never
// alias the live epoch.
class DenseIndexSet {
 public:
  DenseIndexSet() = default;
  explicit DenseIndexSet(std::size_t capacity) { reserve(capacity); }

  void reserve(std::size_t n) {
    if (stamp_.size() < n) stamp_.resize(n, 0);
  }

  // O(1): invalidates all entries by moving to a fresh epoch.
  void reset() {
    size_ = 0;
    if (++epoch_ == 0) {
      std::fill(stamp_.begin(), stamp_.end(), 0u);
      epoch_ = 1;
    }
  }

  // Returns true when `key` was not yet a member (same contract as
  // std::unordered_set::insert().second).
  bool insert(std::size_t key) {
    if (key >= stamp_.size()) grow(key);
    if (stamp_[key] == epoch_) return false;
    stamp_[key] = epoch_;
    ++size_;
    return true;
  }

  bool contains(std::size_t key) const {
    return key < stamp_.size() && stamp_[key] == epoch_;
  }

  // Number of members inserted since the last reset().
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  // Test seam for the epoch-wrap path: jump to the last epoch value so the
  // next reset() wraps. Stamped entries stay valid until that reset.
  void forceEpochWrapForTest() {
    for (auto& s : stamp_) s = s == epoch_ ? ~0u : 0u;
    epoch_ = ~0u;
  }

 private:
  void grow(std::size_t key) {
    stamp_.resize(std::max(key + 1, stamp_.size() * 2), 0);
  }

  std::vector<std::uint32_t> stamp_;
  std::uint32_t epoch_ = 1;  // 0 is reserved for "never stamped"
  std::size_t size_ = 0;
};

// Map from integer keys to T with the same epoch discipline. at() inserts a
// default-constructed value on first touch per epoch; values are recycled
// across epochs (vector-valued payloads keep their heap capacity). keys()
// lists the live keys in insertion order for iteration.
template <typename T>
class DenseIndexMap {
 public:
  DenseIndexMap() = default;
  explicit DenseIndexMap(std::size_t capacity) { reserve(capacity); }

  void reserve(std::size_t n) {
    if (stamp_.size() < n) {
      stamp_.resize(n, 0);
      values_.resize(n);
    }
  }

  void reset() {
    keys_.clear();
    if (++epoch_ == 0) {
      std::fill(stamp_.begin(), stamp_.end(), 0u);
      epoch_ = 1;
    }
  }

  // Value for `key`, default-initialized (or recycled and cleared) on the
  // first access of the current epoch.
  T& at(std::size_t key) {
    if (key >= stamp_.size()) grow(key);
    if (stamp_[key] != epoch_) {
      stamp_[key] = epoch_;
      recycle(values_[key]);
      keys_.push_back(key);
    }
    return values_[key];
  }

  T* find(std::size_t key) {
    return contains(key) ? &values_[key] : nullptr;
  }
  const T* find(std::size_t key) const {
    return contains(key) ? &values_[key] : nullptr;
  }

  bool contains(std::size_t key) const {
    return key < stamp_.size() && stamp_[key] == epoch_;
  }

  std::size_t size() const { return keys_.size(); }
  bool empty() const { return keys_.empty(); }

  // Live keys, in first-touch order.
  const std::vector<std::size_t>& keys() const { return keys_; }

  void forceEpochWrapForTest() {
    for (auto& s : stamp_) s = s == epoch_ ? ~0u : 0u;
    epoch_ = ~0u;
  }

 private:
  void grow(std::size_t key) {
    const std::size_t n = std::max(key + 1, stamp_.size() * 2);
    stamp_.resize(n, 0);
    values_.resize(n);
  }

  // Stale values are cleared lazily on first reuse; container payloads keep
  // their capacity instead of being destroyed.
  static void recycle(T& v) {
    if constexpr (requires(T& t) { t.clear(); }) {
      v.clear();
    } else {
      v = T{};
    }
  }

  std::vector<std::uint32_t> stamp_;
  std::vector<T> values_;
  std::vector<std::size_t> keys_;
  std::uint32_t epoch_ = 1;
};

// The analysis passes key these by NodeId.
using DenseNodeSet = DenseIndexSet;
template <typename T>
using DenseNodeMap = DenseIndexMap<T>;

}  // namespace boosting::analysis
