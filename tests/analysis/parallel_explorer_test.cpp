// exploreReachable, the eager BFS of analysis/parallel_explorer.h.
//
// The certificate pipeline expands G(C) lazily (the valence analyzer's
// region BFS); benches, tools and tests use exploreReachable to
// materialize a region up front. Both must produce the same graph: node
// ids, states, parents, compact edges and action intern indices. These
// tests check that, the maxStates valve, and that the harness-only policy
// and stats fields stay inert.
#include "analysis/parallel_explorer.h"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/bivalence.h"
#include "analysis/por.h"
#include "analysis/symmetry.h"
#include "analysis/valence.h"
#include "processes/relay_consensus.h"
#include "processes/tob_consensus.h"

namespace boosting::analysis {
namespace {

using processes::buildRelayConsensusSystem;
using processes::buildTOBConsensusSystem;
using processes::RelaySystemSpec;
using processes::TOBConsensusSpec;

std::unique_ptr<ioa::System> relay(int n, int f) {
  RelaySystemSpec spec;
  spec.processCount = n;
  spec.objectResilience = f;
  spec.addScratchRegister = false;
  return buildRelayConsensusSystem(spec);
}

std::unique_ptr<ioa::System> tob(int n, int f) {
  TOBConsensusSpec spec;
  spec.processCount = n;
  spec.serviceResilience = f;
  spec.policy = services::DummyPolicy::PreferDummy;
  return buildTOBConsensusSystem(spec);
}

void expectSameEdges(std::optional<EdgeList> a, std::optional<EdgeList> b,
                     NodeId id) {
  ASSERT_EQ(a.has_value(), b.has_value()) << "cache mismatch at " << id;
  if (!a) return;
  ASSERT_EQ(a->size(), b->size()) << "fan-out mismatch at " << id;
  for (std::size_t k = 0; k < a->size(); ++k) {
    EXPECT_EQ(a->data()[k].task, b->data()[k].task) << "edge task at " << id;
    EXPECT_EQ(a->data()[k].action, b->data()[k].action)
        << "edge action at " << id;
    EXPECT_EQ(a->data()[k].to, b->data()[k].to) << "edge target at " << id;
  }
}

// Bit-for-bit graph equality: same node count, the same state behind every
// node id, the same first-discovery parent chains (via pathTo), the same
// cached full and reduced successor lists, and the same action pool.
void expectSameGraph(const StateGraph& a, const StateGraph& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.actionPoolSize(), b.actionPoolSize());
  for (NodeId id = 0; id < a.size(); ++id) {
    ASSERT_TRUE(a.state(id).equals(b.state(id)))
        << "state mismatch at node " << id;
    expectSameEdges(a.cachedSuccessors(id), b.cachedSuccessors(id), id);
    expectSameEdges(a.cachedReducedSuccessors(id),
                    b.cachedReducedSuccessors(id), id);
    const auto pa = a.pathTo(id);
    const auto pb = b.pathTo(id);
    ASSERT_EQ(pa.size(), pb.size()) << "witness path length at " << id;
    for (std::size_t k = 0; k < pa.size(); ++k) {
      EXPECT_EQ(pa[k].task, pb[k].task);
      EXPECT_EQ(pa[k].action, pb[k].action);
      EXPECT_EQ(pa[k].to, pb[k].to);
    }
  }
  for (std::uint32_t k = 0; k < a.actionPoolSize(); ++k) {
    EXPECT_EQ(a.actionAt(k), b.actionAt(k)) << "action " << k;
  }
}

TEST(ExploreReachable, EagerRegionMatchesLazyValenceWalk) {
  struct Fixture {
    const char* name;
    std::unique_ptr<ioa::System> (*build)();
  };
  const Fixture fixtures[] = {
      {"relay(2,0)", [] { return relay(2, 0); }},
      {"relay(3,0)", [] { return relay(3, 0); }},
      {"relay(3,1)", [] { return relay(3, 1); }},
      {"tob(2,0)", [] { return tob(2, 0); }},
  };
  const std::pair<SymmetryMode, PorMode> modes[] = {
      {SymmetryMode::Off, PorMode::Off},
      {SymmetryMode::Off, PorMode::Auto},
      {SymmetryMode::On, PorMode::Auto},
  };
  for (const auto& fx : fixtures) {
    for (const auto& [sym, por] : modes) {
      SCOPED_TRACE(std::string(fx.name) + " symmetry " +
                   (sym == SymmetryMode::Off ? "off" : "on") + " por " +
                   (por == PorMode::Off ? "off" : "auto"));
      auto sysE = fx.build();
      StateGraph eager(*sysE, SymmetryPolicy::forSystem(*sysE, sym),
                       PorPolicy::forSystem(*sysE, por));
      const NodeId rootE = eager.intern(canonicalInitialization(*sysE, 1));
      const ExploreStats stats = exploreReachable(eager, rootE);
      EXPECT_FALSE(stats.truncated);
      EXPECT_EQ(stats.statesDiscovered, eager.size());

      auto sysL = fx.build();
      StateGraph lazy(*sysL, SymmetryPolicy::forSystem(*sysL, sym),
                      PorPolicy::forSystem(*sysL, por));
      const NodeId rootL = lazy.intern(canonicalInitialization(*sysL, 1));
      ValenceAnalyzer va(lazy);
      va.explore(rootL);

      ASSERT_EQ(rootE, rootL);
      ASSERT_EQ(eager.porActive(), lazy.porActive());
      ASSERT_EQ(eager.symmetryActive(), lazy.symmetryActive());
      expectSameGraph(eager, lazy);
      std::string why;
      EXPECT_TRUE(eager.checkConsistent(&why)) << why;
    }
  }
}

TEST(ExploreReachable, StatsMatchTheGraph) {
  auto sys = relay(3, 1);
  StateGraph g(*sys);
  const NodeId root = g.intern(canonicalInitialization(*sys, 1));
  const ExploreStats stats = exploreReachable(g, root);
  EXPECT_FALSE(stats.truncated);
  EXPECT_EQ(stats.statesDiscovered, g.size());
  // Without POR every expanded edge is a full-tier edge, walked once.
  EXPECT_EQ(stats.edgesComputed, g.stats().edgesDiscovered);
  EXPECT_EQ(g.stats().expansions, g.size());
  EXPECT_GT(stats.frontierPeak, 0u);
}

TEST(ExploreReachable, MaxStatesTruncates) {
  auto sys = relay(3, 0);
  StateGraph g(*sys);
  NodeId root = g.intern(canonicalInitialization(*sys, 1));
  ExplorationPolicy policy;
  policy.maxStates = 50;
  auto stats = exploreReachable(g, root, policy);
  EXPECT_TRUE(stats.truncated);
  EXPECT_GE(stats.statesDiscovered, 50u);
  // The graph holds exactly the discovered states; truncated frontier
  // leaves have no cached successors.
  EXPECT_EQ(g.size(), stats.statesDiscovered);
  bool someLeaf = false;
  for (NodeId id = 0; id < g.size(); ++id) {
    if (!g.cachedSuccessors(id)) someLeaf = true;
  }
  EXPECT_TRUE(someLeaf);
  std::string why;
  EXPECT_TRUE(g.checkConsistent(&why)) << why;
}

TEST(ExploreReachable, HarnessOnlyFieldsStayInert) {
  // ExplorationPolicy::threads, ExploreStats::perWorker and
  // ExploreStats::pipeline exist only for the certificate benchmark's
  // harness: any thread count explores the same graph, serially.
  auto sysA = relay(3, 1);
  StateGraph a(*sysA);
  const NodeId rootA = a.intern(canonicalInitialization(*sysA, 1));
  exploreReachable(a, rootA);

  auto sysB = relay(3, 1);
  StateGraph b(*sysB);
  const NodeId rootB = b.intern(canonicalInitialization(*sysB, 1));
  ExplorationPolicy four;
  four.threads = 4;
  const ExploreStats stats = exploreReachable(b, rootB, four);
  EXPECT_TRUE(stats.perWorker.empty());
  EXPECT_EQ(stats.pipeline.installWaitNs, 0u);
  expectSameGraph(a, b);
}

}  // namespace
}  // namespace boosting::analysis
