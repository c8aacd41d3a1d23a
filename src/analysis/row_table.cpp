#include "analysis/row_table.h"

#include <algorithm>
#include <cstring>

#include "util/hashing.h"

namespace boosting::analysis {

namespace {

constexpr std::size_t kInitialSlots = 1024;

}  // namespace

std::uint32_t RowTable::hashOf(const std::uint32_t* r) const {
  return static_cast<std::uint32_t>(util::hashIdRow(r, width_));
}

RowTable::Probe RowTable::find(const std::uint32_t* r) const {
  Probe p;
  p.hash = hashOf(r);
  if (index_.empty()) return p;
  const std::size_t mask = index_.size() - 1;
  std::size_t i = p.hash & mask;
  for (; index_[i].id != kNone; i = (i + 1) & mask) {
    const Slot s = index_[i];
    if (s.hash == p.hash &&
        std::memcmp(row(s.id), r, width_ * sizeof(std::uint32_t)) == 0) {
      p.id = s.id;
      return p;
    }
  }
  p.slot = i;
  return p;
}

std::uint32_t RowTable::insert(const Probe& p, const std::uint32_t* r) {
  std::size_t slot = p.slot;
  if (index_.empty()) {
    rehome(kInitialSlots);
    slot = p.hash & (kInitialSlots - 1);
  }
  const auto id = static_cast<std::uint32_t>(size_);
  std::size_t offset = 0;
  const std::size_t chunk = chunkOf(id, &offset);
  if (chunk == chunks_.size()) {
    const std::size_t shift =
        std::clamp<std::size_t>(chunk + kChunkMinShift - 1, kChunkMinShift,
                                kChunkMaxShift);
    const std::size_t values = (std::size_t{1} << shift) * width_;
    chunks_.emplace_back(new std::uint32_t[values]);
    rowBytes_ += values * sizeof(std::uint32_t);
  }
  std::copy(r, r + width_, chunks_[chunk].get() + offset * width_);
  index_[slot] = Slot{p.hash, id};
  if (pastMaxLoad(++size_, index_.size())) rehome(index_.size() * 2);
  return id;
}

void RowTable::rehome(std::size_t newCap) {
  std::vector<Slot> old = std::move(index_);
  index_.assign(newCap, Slot{});
  const std::size_t mask = newCap - 1;
  for (const Slot& s : old) {
    if (s.id == kNone) continue;
    // Rows are distinct, so reinsertion only needs the first empty
    // position of the probe sequence from the stored hash.
    std::size_t i = s.hash & mask;
    while (index_[i].id != kNone) i = (i + 1) & mask;
    index_[i] = s;
  }
}

bool RowTable::checkConsistent(std::string* why) const {
  auto fail = [&](const char* msg) {
    if (why) *why = msg;
    return false;
  };
  std::vector<char> seen(size_, 0);
  std::size_t occupied = 0;
  const std::size_t mask = index_.size() - 1;
  for (std::size_t i = 0; i < index_.size(); ++i) {
    const Slot& s = index_[i];
    if (s.id == kNone) continue;
    ++occupied;
    if (s.id >= size_) return fail("index slot references out-of-range row");
    if (seen[s.id]) return fail("row in two index slots");
    seen[s.id] = 1;
    if (s.hash != hashOf(row(s.id))) {
      return fail("index slot hash differs from its row's hash");
    }
    for (std::size_t j = s.hash & mask; j != i; j = (j + 1) & mask) {
      if (index_[j].id == kNone) {
        return fail("index slot unreachable from its home slot");
      }
    }
  }
  if (occupied != size_) return fail("occupied index slots != row count");
  return true;
}

}  // namespace boosting::analysis
