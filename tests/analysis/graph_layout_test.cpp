// Differential tests for the flat StateGraph memory layout: the pooled
// CSR edge arena, the interned action table and the 4-byte target-only
// edges (task and action re-derived from the source row) are storage
// changes only -- every
// observable (successor lists, witness paths, rootOf, node numbering)
// must be independent of the layout. The oracle here is the
// System itself: enabled()/applyInPlace() recompute each successor list
// from first principles.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/bivalence.h"
#include "analysis/parallel_explorer.h"
#include "analysis/por.h"
#include "analysis/state_graph.h"
#include "analysis/valence.h"
#include "processes/relay_consensus.h"
#include "processes/tob_consensus.h"

namespace boosting::analysis {
namespace {

using processes::buildRelayConsensusSystem;
using processes::buildTOBConsensusSystem;
using processes::RelaySystemSpec;
using processes::TOBConsensusSpec;

struct Fixture {
  const char* name;
  std::unique_ptr<ioa::System> (*build)();
};

std::unique_ptr<ioa::System> relay30() {
  RelaySystemSpec spec;
  spec.processCount = 3;
  spec.objectResilience = 0;
  spec.addScratchRegister = false;
  return buildRelayConsensusSystem(spec);
}

std::unique_ptr<ioa::System> relay31() {
  RelaySystemSpec spec;
  spec.processCount = 3;
  spec.objectResilience = 1;
  spec.addScratchRegister = false;
  return buildRelayConsensusSystem(spec);
}

std::unique_ptr<ioa::System> relay31Adversarial() {
  RelaySystemSpec spec;
  spec.processCount = 3;
  spec.objectResilience = 1;
  spec.addScratchRegister = false;
  spec.policy = services::DummyPolicy::PreferDummy;
  return buildRelayConsensusSystem(spec);
}

std::unique_ptr<ioa::System> tob21() {
  TOBConsensusSpec spec;
  spec.processCount = 2;
  spec.serviceResilience = 1;
  spec.policy = services::DummyPolicy::PreferDummy;
  return buildTOBConsensusSystem(spec);
}

// Unreduced relay(5,1): large enough that the successor lists cross
// several 2^15-edge arena chunk boundaries.
std::unique_ptr<ioa::System> relay51() {
  RelaySystemSpec spec;
  spec.processCount = 5;
  spec.objectResilience = 1;
  spec.addScratchRegister = false;
  return buildRelayConsensusSystem(spec);
}

const Fixture kFixtures[] = {
    {"relay(3,0)", relay30},
    {"relay(3,1)", relay31},
    {"relay(3,1)+dummy", relay31Adversarial},
    {"tob(2,1)", tob21},
};

// Every cached successor list must be exactly what the System computes
// for that state: one edge per applicable task, in allTasks() order, with
// the enabled action and the interned image of applying it. The walk
// covers the regions of every initialization; on relay(5,1) that is
// 190,656 edges, about six arena chunks, so lists on both sides of chunk
// boundaries are checked.
TEST(GraphLayout, SuccessorListsMatchSystemOracle) {
  std::vector<Fixture> fixtures(std::begin(kFixtures), std::end(kFixtures));
  fixtures.push_back({"relay(5,1)", relay51});
  std::uint64_t maxEdges = 0;
  for (const Fixture& fx : fixtures) {
    auto sys = fx.build();
    StateGraph g(*sys);
    std::vector<NodeId> stack;
    std::set<NodeId> seen;
    for (int j = 0; j <= sys->processCount(); ++j) {
      const NodeId root = g.intern(canonicalInitialization(*sys, j));
      if (seen.insert(root).second) stack.push_back(root);
    }
    while (!stack.empty()) {
      const NodeId x = stack.back();
      stack.pop_back();
      const EdgeList edges = g.successors(x);
      std::size_t k = 0;
      for (const ioa::TaskId& task : sys->allTasks()) {
        const auto action = sys->enabled(g.state(x), task);
        if (!action) continue;
        ASSERT_LT(k, edges.size()) << fx.name << " node " << x;
        const EdgeView e = edges[k];
        EXPECT_EQ(e.task, task) << fx.name << " node " << x << " edge " << k;
        EXPECT_EQ(e.action, *action)
            << fx.name << " node " << x << " edge " << k;
        ioa::SystemState next = g.state(x);
        sys->applyInPlace(next, *action);
        EXPECT_TRUE(g.state(e.to).equals(next))
            << fx.name << " node " << x << " edge " << k;
        if (seen.insert(e.to).second) stack.push_back(e.to);
        ++k;
      }
      ASSERT_EQ(k, edges.size()) << fx.name << " node " << x;
      ASSERT_LT(g.size(), 200000u) << fx.name;
    }
    maxEdges = std::max(maxEdges, g.stats().edgesDiscovered);
  }
  EXPECT_GT(maxEdges, 4u * StateGraph::kEdgeChunkCapacity);
}

// A stored edge is its target alone; the iterator re-derives the task and
// action indices from the source row. They must be in range and decode to
// the exact objects the view exposes, with the pool actually
// deduplicating repeated actions.
TEST(GraphLayout, EdgesReDeriveThroughInternPools) {
  for (const Fixture& fx : kFixtures) {
    auto sys = fx.build();
    StateGraph g(*sys);
    const NodeId root = g.intern(canonicalInitialization(*sys, 1));
    exploreReachable(g, root, ExplorationPolicy{});
    std::size_t totalEdges = 0;
    for (NodeId x = 0; x < g.size(); ++x) {
      const auto edges = g.cachedSuccessors(x);
      if (!edges) continue;
      std::size_t k = 0;
      for (auto it = edges->begin(); it != edges->end(); ++it, ++k) {
        ASSERT_LT(it.actionIndex(), g.actionPoolSize()) << fx.name;
        ASSERT_LT(it.taskIndex(), sys->allTasks().size()) << fx.name;
        ASSERT_LT(it.to(), g.size()) << fx.name;
        ASSERT_EQ(it.to(), edges->data()[k]) << fx.name;
        const EdgeView e = *it;
        EXPECT_EQ(&g.actionAt(it.actionIndex()), &e.action);
        EXPECT_EQ(&g.taskAt(it.taskIndex()), &e.task);
        EXPECT_EQ(&(*edges)[k].action, &e.action);
        ++totalEdges;
      }
    }
    // Interning must collapse repeats: far fewer distinct actions than
    // edges on every fixture here.
    EXPECT_GT(totalEdges, g.actionPoolSize()) << fx.name;
    EXPECT_GT(g.actionPoolSize(), 0u) << fx.name;
  }
}

// Witness paths replay through the real System to the node's state even
// though a parent stores only its `from` node.
TEST(GraphLayout, PathToReplaysThroughSystem) {
  for (const Fixture& fx : kFixtures) {
    auto sys = fx.build();
    StateGraph g(*sys);
    const NodeId root = g.intern(canonicalInitialization(*sys, 1));
    exploreReachable(g, root, ExplorationPolicy{});
    // Sample the whole graph on the small fixtures, stride the big ones.
    const NodeId stride = g.size() > 2000 ? 37 : 1;
    for (NodeId id = 0; id < g.size(); id += stride) {
      EXPECT_EQ(g.rootOf(id), root);
      ioa::SystemState s = g.state(root);
      for (const Edge& e : g.pathTo(id)) sys->applyInPlace(s, e.action);
      ASSERT_TRUE(s.equals(g.state(id))) << fx.name << " node " << id;
    }
  }
}

// memoryStats() is live accounting: every component grows (weakly) as the
// graph grows, and totals are plausible for the flat layout.
TEST(GraphLayout, MemoryStatsTrackGrowth) {
  auto sys = relay31();
  StateGraph g(*sys);
  const NodeId root = g.intern(canonicalInitialization(*sys, 1));
  const auto empty = g.memoryStats();
  EXPECT_GT(empty.bytesStates, 0u);
  exploreReachable(g, root, ExplorationPolicy{});
  const auto full = g.memoryStats();
  EXPECT_GT(full.bytesStates, empty.bytesStates);
  EXPECT_GT(full.bytesEdges, 0u);
  EXPECT_GT(full.bytesIndex, 0u);
  // Edge accounting is chunk-granular (reserved arena slack counts), so
  // bound it by whole chunks rather than per state: this small fixture
  // must fit one 2^15-slot chunk of 4-byte edges plus pool overhead.
  std::size_t edgeCount = 0;
  for (NodeId x = 0; x < g.size(); ++x) {
    if (const auto edges = g.cachedSuccessors(x)) edgeCount += edges->size();
  }
  EXPECT_GE(full.bytesEdges, edgeCount * sizeof(NodeId));
  EXPECT_LE(full.bytesEdges,
            StateGraph::kEdgeChunkCapacity * sizeof(NodeId) + (1u << 20));
  EXPECT_EQ(full.total(),
            full.bytesStates + full.bytesEdges + full.bytesIndex);
}

// A configuration costs one row of u32 slot ids: on relay(5,1) with POR,
// after the Lemma-4 scan (no state materialized), the state bytes stay
// within the row plus 16 bytes of chunk slack per state.
TEST(GraphLayout, StateBytesAreOneIdRowPerState) {
  RelaySystemSpec spec;
  spec.processCount = 5;
  spec.objectResilience = 1;
  const auto sys = buildRelayConsensusSystem(spec);
  StateGraph g(*sys, nullptr, PorPolicy::forSystem(*sys, PorMode::Auto));
  ValenceAnalyzer va(g);
  (void)findBivalentInitialization(g, va);
  ASSERT_GT(g.size(), 1000u);
  const std::uint64_t partCount = g.state(0).partCount();
  EXPECT_EQ(partCount, g.width());
  const std::uint64_t rows = g.size() * 4 * partCount;
  EXPECT_GE(g.memoryStats().bytesStates, rows);
  EXPECT_LE(g.memoryStats().bytesStates, g.size() * (4 * partCount + 16));
}

// The node index keeps one 8-byte {hash, node} slot per node and grows by
// rehoming each slot from its stored hash, reading no row. Interning the
// states of an explored graph into a fresh one drives the index through
// at least four growths (1,024 slots, doubling at 70% load: past 717,
// 1,434, 2,867 and 5,734 nodes); the graph is consistent after every one
// and finds every row again under its original id.
TEST(GraphLayout, NodeIndexFindsEveryRowAcrossGrowths) {
  auto sys = relay51();
  StateGraph src(*sys);
  for (int ones = 0; ones <= sys->processCount(); ++ones) {
    exploreReachable(src, src.intern(canonicalInitialization(*sys, ones)),
                     ExplorationPolicy{});
  }
  ASSERT_GT(src.size(), 5734u);

  StateGraph dst(*sys);
  std::uint64_t indexBytes = dst.memoryStats().bytesIndex;
  std::size_t resized = 0;
  std::string why;
  for (NodeId id = 0; id < src.size(); ++id) {
    ASSERT_EQ(dst.intern(src.state(id)), id);
    // bytesIndex moves on every index growth (and on the parallel
    // per-node arrays' growth): check the graph each time.
    const std::uint64_t now = dst.memoryStats().bytesIndex;
    if (now == indexBytes) continue;
    indexBytes = now;
    ++resized;
    ASSERT_TRUE(dst.checkConsistent(&why)) << why << " at " << dst.size();
  }
  EXPECT_GE(resized, 4u);
  const std::uint64_t hits = dst.stats().dedupHits;
  for (NodeId id = src.size(); id-- > 0;) {
    ASSERT_EQ(dst.intern(src.state(id)), id);
  }
  EXPECT_EQ(dst.size(), src.size());
  EXPECT_EQ(dst.stats().dedupHits, hits + src.size());
  EXPECT_TRUE(dst.checkConsistent(&why)) << why;
}

TEST(GraphLayout, TaskCountMustFitSixteenBits) {
  EXPECT_THROW(StateGraph::validateTaskCapacity(1u << 16, 1u << 15),
               std::invalid_argument);
  EXPECT_NO_THROW(StateGraph::validateTaskCapacity(65535, 1u << 17));
}

TEST(GraphLayout, ChunkMustHoldOneFullSuccessorList) {
  // taskCount == chunkCapacity cannot hold one full list (a run of
  // allTasks().size() edges must fit a single chunk).
  EXPECT_THROW(StateGraph::validateTaskCapacity(256, 256),
               std::invalid_argument);
  EXPECT_NO_THROW(StateGraph::validateTaskCapacity(255, 256));
}

}  // namespace
}  // namespace boosting::analysis
