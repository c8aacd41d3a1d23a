// Dense epoch-stamped scratch set over small integer keys.
//
// The whole-graph analysis passes (the serial BFS, dot export, the
// exhaustive hook enumeration) need visited sets keyed by NodeId -- dense
// integers handed out consecutively by StateGraph::intern. Hash sets pay
// for hashing, pointer-chasing and rehash-time allocation on every probe;
// a dense stamp array pays one comparison per probe and resets in O(1) by
// bumping an epoch counter, so the backing storage is reused across
// iterations without ever being cleared (membership means stamp[key] ==
// current epoch). Its cost is 4 bytes per key up to the largest key, so a
// pass that visits a small corner of a large graph (the Fig. 3 hook
// walk's scans) keeps a table sized to its visits instead (hook.cpp).
//
// The set auto-grows to the largest key inserted, so it tracks a growing
// StateGraph without explicit resize calls. It is a scratch structure:
// single-threaded, no erase.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
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

// The analysis passes key it by NodeId.
using DenseNodeSet = DenseIndexSet;

}  // namespace boosting::analysis
