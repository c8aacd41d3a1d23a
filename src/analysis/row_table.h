// RowTable: an insert-only set of fixed-width rows of u32, each issued a
// dense id (0, 1, 2, ... in insertion order).
//
// Three memos of the engine key on such rows: the StateGraph's node index
// (a configuration is a row of slot ids), the TransitionCache's ample
// decisions (a configuration's row of enabled classes) and its successor
// memo ({entry, participant id} pairs). All use this one layout:
//   - Rows are stored back to back in chunks that never relocate (64, 64,
//     128, 256, 512, then 1024 rows each), so a row pointer stays valid
//     while the table grows.
//   - The index is a util::IdIndex over the rows' 32-bit hashes; a probe
//     compares the stored hash, then the row.
// Not thread-safe.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/id_index.h"

namespace boosting::analysis {

class RowTable {
 public:
  static constexpr std::uint32_t kNone = util::IdIndex::kNone;

  explicit RowTable(std::size_t width) : width_(width) {}

  std::size_t size() const { return index_.size(); }

  // Row `id`: width() values at an address that is stable for the table's
  // lifetime.
  const std::uint32_t* row(std::uint32_t id) const {
    std::size_t offset = 0;
    const std::size_t chunk = chunkOf(id, &offset);
    return chunks_[chunk].get() + offset * width_;
  }

  // Where a row is, or where it would go: id == kNone when absent.
  using Probe = util::IdIndex::Probe;
  Probe find(const std::uint32_t* r) const;
  // Appends `r`, which `p` = find(r) did not find, and returns its id. No
  // other insert may come between the find and this call.
  std::uint32_t insert(const Probe& p, const std::uint32_t* r);

  // Index self-check: every row sits in exactly one slot, under its row's
  // hash, reachable from its home slot. Returns false and (when `why` is
  // non-null) a diagnostic on the first violation.
  bool checkConsistent(std::string* why = nullptr) const;

  // Allocated bytes of the row chunks and of the index.
  std::uint64_t rowBytes() const { return rowBytes_; }
  std::uint64_t indexBytes() const { return index_.bytes(); }

 private:
  static constexpr unsigned kChunkMinShift = 6;
  static constexpr unsigned kChunkMaxShift = 10;
  static std::size_t chunkOf(std::uint32_t id, std::size_t* offset) {
    constexpr std::uint32_t kMax = std::uint32_t{1} << kChunkMaxShift;
    if (id < kMax) {
      const unsigned c =
          static_cast<unsigned>(std::bit_width(id >> kChunkMinShift));
      *offset =
          id - (c == 0 ? 0 : std::uint32_t{1} << (c + kChunkMinShift - 1));
      return c;
    }
    *offset = id & (kMax - 1);
    return (kChunkMaxShift - kChunkMinShift) + (id >> kChunkMaxShift);
  }
  std::uint32_t hashOf(const std::uint32_t* r) const;

  std::size_t width_;
  std::vector<std::unique_ptr<std::uint32_t[]>> chunks_;
  std::uint64_t rowBytes_ = 0;
  util::IdIndex index_;
};

}  // namespace boosting::analysis
