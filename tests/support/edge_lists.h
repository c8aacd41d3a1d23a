// Field-by-field equality of two successor lists. A stored edge is its
// target alone; the task and action-pool indices are re-derived from the
// source row, so two graphs agree on an edge when the targets and both
// re-derived indices match.
#pragma once

#include <gtest/gtest.h>

#include <optional>

#include "analysis/state_graph.h"

namespace boosting::analysis {

inline void expectSameEdgeLists(const std::optional<EdgeList>& a,
                                const std::optional<EdgeList>& b,
                                NodeId id) {
  ASSERT_EQ(a.has_value(), b.has_value()) << "cache mismatch at " << id;
  if (!a) return;
  ASSERT_EQ(a->size(), b->size()) << "fan-out mismatch at " << id;
  auto ib = b->begin();
  for (auto ia = a->begin(); ia != a->end(); ++ia, ++ib) {
    EXPECT_EQ(ia.taskIndex(), ib.taskIndex()) << "edge task at " << id;
    EXPECT_EQ(ia.actionIndex(), ib.actionIndex()) << "edge action at " << id;
    EXPECT_EQ(ia.to(), ib.to()) << "edge target at " << id;
  }
}

}  // namespace boosting::analysis
