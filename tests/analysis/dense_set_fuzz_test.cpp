// Differential fuzz for the dense epoch-stamped scratch set
// (analysis/dense.h) against the std::unordered_set semantics it replaces
// on the analysis hot paths. The properties that matter: insert()'s
// return value matches unordered_set::insert().second, reset() is a full
// clear (epoch bump, no element-wise work), and the once-per-2^32-resets
// epoch wrap cannot resurrect stale members.
#include "analysis/dense.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <unordered_set>

namespace boosting::analysis {
namespace {

TEST(DenseIndexSet, MatchesUnorderedSetOracle) {
  std::mt19937_64 rng(0xB005713Bu);
  for (int round = 0; round < 8; ++round) {
    DenseIndexSet dense;
    std::unordered_set<std::size_t> oracle;
    for (int op = 0; op < 4000; ++op) {
      const std::size_t key = rng() % 512;
      switch (rng() % 4) {
        case 0:
        case 1: {
          const bool fresh = dense.insert(key);
          EXPECT_EQ(fresh, oracle.insert(key).second) << "key " << key;
          break;
        }
        case 2:
          EXPECT_EQ(dense.contains(key), oracle.count(key) != 0)
              << "key " << key;
          break;
        case 3:
          if (rng() % 16 == 0) {
            dense.reset();
            oracle.clear();
          }
          break;
      }
      ASSERT_EQ(dense.size(), oracle.size());
      ASSERT_EQ(dense.empty(), oracle.empty());
    }
  }
}

TEST(DenseIndexSet, ResetIsClearFree) {
  DenseIndexSet s(8);
  for (std::size_t k = 0; k < 100; k += 3) s.insert(k);
  EXPECT_EQ(s.size(), 34u);
  // Many reset cycles reuse the same storage; membership never leaks
  // across epochs.
  for (int cycle = 0; cycle < 1000; ++cycle) {
    s.reset();
    EXPECT_TRUE(s.empty());
    EXPECT_FALSE(s.contains(3 * static_cast<std::size_t>(cycle % 33)));
    EXPECT_TRUE(s.insert(cycle % 7));
    EXPECT_FALSE(s.insert(cycle % 7));
    EXPECT_TRUE(s.contains(cycle % 7));
    EXPECT_EQ(s.size(), 1u);
  }
}

TEST(DenseIndexSet, EpochWrapCannotResurrectStaleStamps) {
  DenseIndexSet s;
  s.insert(5);
  s.insert(9);
  s.forceEpochWrapForTest();
  // Entries stamped before the wrap are still members until the reset...
  EXPECT_TRUE(s.contains(5));
  s.reset();  // epoch wraps to 1; stamp array must have been zero-filled
  EXPECT_FALSE(s.contains(5));
  EXPECT_FALSE(s.contains(9));
  EXPECT_TRUE(s.insert(5));
  EXPECT_TRUE(s.contains(5));
  EXPECT_EQ(s.size(), 1u);
}

TEST(DenseIndexSet, GrowsToLargestKey) {
  DenseIndexSet s;  // no reserve: auto-grow path
  EXPECT_TRUE(s.insert(100000));
  EXPECT_TRUE(s.contains(100000));
  EXPECT_FALSE(s.contains(99999));
  EXPECT_TRUE(s.insert(3));
  EXPECT_EQ(s.size(), 2u);
}

}  // namespace
}  // namespace boosting::analysis
