#include "analysis/row_table.h"

#include <algorithm>
#include <cstring>

#include "util/hashing.h"

namespace boosting::analysis {

std::uint32_t RowTable::hashOf(const std::uint32_t* r) const {
  return static_cast<std::uint32_t>(util::hashIdRow(r, width_));
}

RowTable::Probe RowTable::find(const std::uint32_t* r) const {
  return index_.find(hashOf(r), [&](std::uint32_t id) {
    return std::memcmp(row(id), r, width_ * sizeof(std::uint32_t)) == 0;
  });
}

std::uint32_t RowTable::insert(const Probe& p, const std::uint32_t* r) {
  const auto id = static_cast<std::uint32_t>(size());
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
  index_.insert(p, id);
  return id;
}

bool RowTable::checkConsistent(std::string* why) const {
  return index_.checkConsistent(
      size(), [this](std::uint32_t id) { return hashOf(row(id)); }, why);
}

}  // namespace boosting::analysis
