// RowTable: an insert-only set of fixed-width rows of u32, each issued a
// dense id (0, 1, 2, ... in insertion order).
//
// Two memos of the engine key on such rows: the StateGraph's node index (a
// configuration is a row of slot ids) and the TransitionCache's ample
// decisions (a configuration's row of enabled classes). Both use this one
// layout:
//   - Rows are stored back to back in chunks that never relocate (64, 64,
//     128, 256, 512, then 1024 rows each), so a row pointer stays valid
//     while the table grows.
//   - The index is a linear-probe open-addressing table of 8-byte
//     {32-bit row hash, id} slots, one slot per row. A probe compares the
//     stored hash, then the row. The index doubles at 70% load, and growth
//     rehomes each slot from its stored hash without reading rows.
// No deletions, so no tombstones. Not thread-safe.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace boosting::analysis {

// The load rule of every open-addressing table in the engine: grow once
// `used` of `cap` slots are taken, at 70%, so linear probes stay short.
constexpr bool pastMaxLoad(std::size_t used, std::size_t cap) {
  return used * 10 >= cap * 7;
}

class RowTable {
 public:
  static constexpr std::uint32_t kNone = static_cast<std::uint32_t>(-1);

  explicit RowTable(std::size_t width) : width_(width) {}

  std::size_t size() const { return size_; }

  // Row `id`: width() values at an address that is stable for the table's
  // lifetime.
  const std::uint32_t* row(std::uint32_t id) const {
    std::size_t offset = 0;
    const std::size_t chunk = chunkOf(id, &offset);
    return chunks_[chunk].get() + offset * width_;
  }

  // Where a row is, or where it would go: id == kNone when absent.
  struct Probe {
    std::uint32_t id = kNone;
    std::uint32_t hash = 0;
    std::size_t slot = 0;
  };
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
  std::uint64_t indexBytes() const {
    return index_.capacity() * sizeof(Slot);
  }

 private:
  struct Slot {
    std::uint32_t hash = 0;
    std::uint32_t id = kNone;
  };

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
  void rehome(std::size_t newCap);

  std::size_t width_;
  std::size_t size_ = 0;
  std::vector<std::unique_ptr<std::uint32_t[]>> chunks_;
  std::uint64_t rowBytes_ = 0;
  std::vector<Slot> index_;
};

}  // namespace boosting::analysis
