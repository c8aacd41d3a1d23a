// Differential tests for the flat StateGraph memory layout: the pooled
// CSR edge arena, the interned action table and the compact
// {task_idx, action_idx, to} edges are storage changes only -- every
// observable (successor lists, witness paths, rootOf, node numbering)
// must be independent of the layout. The oracle here is the
// System itself: enabled()/applyInPlace() recompute each successor list
// from first principles.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "analysis/bivalence.h"
#include "analysis/dense.h"
#include "analysis/parallel_explorer.h"
#include "analysis/state_graph.h"
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

const Fixture kFixtures[] = {
    {"relay(3,0)", relay30},
    {"relay(3,1)", relay31},
    {"relay(3,1)+dummy", relay31Adversarial},
    {"tob(2,1)", tob21},
};

// Every cached successor list must be exactly what the System computes
// for that state: one edge per applicable task, in allTasks() order, with
// the enabled action and the interned image of applying it.
TEST(GraphLayout, SuccessorListsMatchSystemOracle) {
  for (const Fixture& fx : kFixtures) {
    auto sys = fx.build();
    StateGraph g(*sys);
    const NodeId root = g.intern(canonicalInitialization(*sys, 1));
    std::vector<NodeId> stack{root};
    DenseNodeSet seen(64);
    seen.insert(root);
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
        if (seen.insert(e.to)) stack.push_back(e.to);
        ++k;
      }
      ASSERT_EQ(k, edges.size()) << fx.name << " node " << x;
      ASSERT_LT(g.size(), 200000u) << fx.name;
    }
  }
}

// The raw compact edges must round-trip through the intern pools: action
// and task indices in range and decoding to the exact values the view
// exposes, with the pool actually deduplicating repeated actions.
TEST(GraphLayout, CompactEdgesRoundTripThroughInternPools) {
  for (const Fixture& fx : kFixtures) {
    auto sys = fx.build();
    StateGraph g(*sys);
    const NodeId root = g.intern(canonicalInitialization(*sys, 1));
    exploreReachable(g, root, ExplorationPolicy{});
    std::size_t totalEdges = 0;
    for (NodeId x = 0; x < g.size(); ++x) {
      const auto edges = g.cachedSuccessors(x);
      if (!edges) continue;
      for (std::size_t k = 0; k < edges->size(); ++k) {
        const CompactEdge& ce = edges->data()[k];
        ASSERT_LT(ce.action, g.actionPoolSize()) << fx.name;
        ASSERT_LT(ce.task, sys->allTasks().size()) << fx.name;
        ASSERT_LT(ce.to, g.size()) << fx.name;
        const EdgeView e = (*edges)[k];
        EXPECT_EQ(&g.actionAt(ce.action), &e.action);
        EXPECT_EQ(&g.taskAt(ce.task), &e.task);
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
// though parents store only intern indices.
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
  // must fit one 2^15-slot chunk of 12-byte edges plus pool overhead.
  std::size_t edgeCount = 0;
  for (NodeId x = 0; x < g.size(); ++x) {
    if (const auto edges = g.cachedSuccessors(x)) edgeCount += edges->size();
  }
  EXPECT_GE(full.bytesEdges, edgeCount * sizeof(CompactEdge));
  EXPECT_LE(full.bytesEdges, (1u << 15) * sizeof(CompactEdge) + (1u << 20));
  EXPECT_EQ(full.total(),
            full.bytesStates + full.bytesEdges + full.bytesIndex);
}

}  // namespace
}  // namespace boosting::analysis
