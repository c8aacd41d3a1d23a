// RowTable, the row store and index under the graph's node ids and the
// transition cache's ample decisions and successor memo: rows keep their
// ids and addresses while the index doubles, and every growth rehomes each
// slot where a probe from its row's hash finds it. The last cell drives
// the shared util::IdIndex with every id under one hash.
#include "analysis/row_table.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "util/id_index.h"

namespace boosting::analysis {
namespace {

// Row k of a width-3 table: distinct for distinct k.
std::vector<std::uint32_t> rowFor(std::uint32_t k) {
  return {k, k * 7 + 1, k ^ 0x5a5a5a5au};
}

TEST(RowTable, EveryRowIsRefoundAcrossGrowths) {
  RowTable t(3);
  EXPECT_TRUE(t.checkConsistent());
  std::vector<const std::uint32_t*> addresses;
  // 8-byte slots: the index's bytes count its slots.
  std::uint64_t slots = t.indexBytes() / 8;
  std::size_t growths = 0;
  std::string why;
  for (std::uint32_t k = 0; k < 6000; ++k) {
    const std::vector<std::uint32_t> r = rowFor(k);
    const RowTable::Probe p = t.find(r.data());
    ASSERT_EQ(p.id, RowTable::kNone) << "row " << k;
    ASSERT_EQ(t.insert(p, r.data()), k);
    addresses.push_back(t.row(k));
    if (t.indexBytes() / 8 == slots) continue;
    // A growth (or the first allocation): every row is found again under
    // its id, at the address it was stored at.
    if (slots != 0) ++growths;
    slots = t.indexBytes() / 8;
    ASSERT_TRUE(t.checkConsistent(&why)) << why << " at " << t.size();
    for (std::uint32_t j = 0; j <= k; ++j) {
      ASSERT_EQ(t.find(rowFor(j).data()).id, j) << "row " << j;
      ASSERT_EQ(t.row(j), addresses[j]) << "row " << j;
    }
  }
  EXPECT_GE(growths, 4u);
  EXPECT_EQ(t.size(), 6000u);
  // Load stays under 70% after every insert.
  EXPECT_LT(t.size() * 10, slots * 7);
  for (std::uint32_t k = 0; k < t.size(); ++k) {
    EXPECT_EQ(t.row(k)[0], k);
    EXPECT_EQ(t.row(k)[2], k ^ 0x5a5a5a5au);
  }
}

TEST(RowTable, RowChunksFollowTheGraphLayout) {
  // 64, 64, 128, 256, 512, then 1024 rows per chunk.
  RowTable t(2);
  const auto fill = [&t](std::uint32_t upTo) {
    for (std::uint32_t k = static_cast<std::uint32_t>(t.size()); k < upTo;
         ++k) {
      const std::uint32_t r[2] = {k, ~k};
      t.insert(t.find(r), r);
    }
  };
  fill(1);
  EXPECT_EQ(t.rowBytes(), 64u * 2 * 4);
  fill(65);
  EXPECT_EQ(t.rowBytes(), 128u * 2 * 4);
  fill(1025);
  EXPECT_EQ(t.rowBytes(), 2048u * 2 * 4);
  std::string why;
  EXPECT_TRUE(t.checkConsistent(&why)) << why;
}

TEST(IdIndex, FullCollisionsAreRefoundAcrossGrowths) {
  // Every id is filed under one hash, so every probe walks one cluster
  // that holds all of them: only the stored hashes, the probe order and
  // the rehoming decide whether an id is found again.
  constexpr std::uint32_t kHash = 0x2545f491u;
  const auto hashOf = [](std::uint32_t) { return kHash; };
  util::IdIndex index;
  std::vector<std::uint32_t> content;  // by id, as an owner keeps it
  const auto findValue = [&](std::uint32_t value) {
    return index.find(kHash, [&](std::uint32_t id) {
      return content[id] == value;
    });
  };
  std::uint64_t bytes = index.bytes();
  std::size_t growths = 0;
  std::string why;
  for (std::uint32_t k = 0; k < 6000; ++k) {
    const std::uint32_t value = k * 2654435761u;  // distinct per k
    const util::IdIndex::Probe p = findValue(value);
    ASSERT_EQ(p.id, util::IdIndex::kNone) << "id " << k;
    content.push_back(value);
    index.insert(p, k);
    if (index.bytes() == bytes) continue;
    if (bytes != 0) ++growths;
    bytes = index.bytes();
    ASSERT_TRUE(index.checkConsistent(content.size(), hashOf, &why))
        << why << " at " << content.size();
    for (std::uint32_t j = 0; j <= k; ++j) {
      ASSERT_EQ(findValue(content[j]).id, j) << "id " << j;
    }
  }
  EXPECT_GE(growths, 3u);
  EXPECT_EQ(index.size(), 6000u);
  EXPECT_TRUE(index.checkConsistent(content.size(), hashOf, &why)) << why;
}

}  // namespace
}  // namespace boosting::analysis
