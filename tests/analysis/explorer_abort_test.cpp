// Abort hardening: when an expansion hook (standing in for any exception
// escaping an expansion) throws mid-exploration, exploreReachable must
// rethrow that exception, leave the StateGraph in a checked-consistent
// state, and leave the graph fully reusable for a fresh exploration.
#include "analysis/parallel_explorer.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "analysis/bivalence.h"
#include "processes/relay_consensus.h"

namespace boosting::analysis {
namespace {

std::unique_ptr<ioa::System> relay(int n, int f) {
  processes::RelaySystemSpec spec;
  spec.processCount = n;
  spec.objectResilience = f;
  spec.addScratchRegister = false;
  spec.policy = services::DummyPolicy::PreferDummy;
  return processes::buildRelayConsensusSystem(spec);
}

struct Boom : std::runtime_error {
  Boom() : std::runtime_error("expansion hook detonated") {}
};

ExplorationPolicy throwAfter(std::size_t expansions) {
  ExplorationPolicy policy;
  policy.expansionHook = [expansions](std::size_t count) {
    if (count > expansions) throw Boom();
  };
  return policy;
}

TEST(ExplorerAbort, ImmediateThrowAborts) {
  // Hook throws on the very first expansion: the root state itself.
  auto sys = relay(2, 0);
  StateGraph g(*sys);
  const NodeId root = g.intern(canonicalInitialization(*sys, 1));
  EXPECT_THROW(exploreReachable(g, root, throwAfter(0)), Boom);
  std::string why;
  EXPECT_TRUE(g.checkConsistent(&why)) << why;
  EXPECT_EQ(g.size(), 1u);
  EXPECT_FALSE(g.cachedSuccessors(root).has_value());
}

TEST(ExplorerAbort, SerialThrowLeavesGraphConsistent) {
  auto sys = relay(3, 1);
  StateGraph g(*sys);
  const NodeId root = g.intern(canonicalInitialization(*sys, 1));
  EXPECT_THROW(exploreReachable(g, root, throwAfter(30)), Boom);
  std::string why;
  EXPECT_TRUE(g.checkConsistent(&why)) << why;
  EXPECT_EQ(g.stats().expansions, 30u);
  // Finish the job; the graph must still be exactly right.
  const ExploreStats done = exploreReachable(g, root, ExplorationPolicy{});
  EXPECT_GT(done.statesDiscovered, 0u);
  ASSERT_TRUE(g.checkConsistent(&why)) << why;
}

TEST(ExplorerAbort, GraphReusableAfterAbort) {
  // For several detonation points, a fresh exploration over the aborted
  // graph must complete and agree with a from-scratch exploration.
  auto sys2 = relay(3, 1);
  StateGraph g2(*sys2);
  const NodeId root2 = g2.intern(canonicalInitialization(*sys2, 1));
  const ExploreStats fresh = exploreReachable(g2, root2, ExplorationPolicy{});
  for (const std::size_t detonateAfter : {1u, 3u, 7u, 20u, 60u}) {
    auto sys = relay(3, 1);
    StateGraph g(*sys);
    const NodeId root = g.intern(canonicalInitialization(*sys, 1));
    EXPECT_THROW(exploreReachable(g, root, throwAfter(detonateAfter)), Boom)
        << "detonateAfter=" << detonateAfter;
    std::string why;
    EXPECT_TRUE(g.checkConsistent(&why))
        << "detonateAfter=" << detonateAfter << ": " << why;
    const ExploreStats after = exploreReachable(g, root, ExplorationPolicy{});
    ASSERT_TRUE(g.checkConsistent(&why)) << why;
    EXPECT_EQ(after.statesDiscovered, fresh.statesDiscovered);
    EXPECT_EQ(after.edgesComputed, fresh.edgesComputed);
    EXPECT_EQ(g.size(), g2.size());
  }
}

TEST(ExplorerAbort, HookSeesEveryExpansion) {
  // The hook receives the running expansion count; with a non-throwing
  // hook the exploration completes and the count reaches the number of
  // states expanded.
  auto sys = relay(3, 1);
  StateGraph g(*sys);
  const NodeId root = g.intern(canonicalInitialization(*sys, 1));
  std::size_t calls = 0;
  std::size_t last = 0;
  ExplorationPolicy policy;
  policy.expansionHook = [&](std::size_t count) {
    ++calls;
    EXPECT_EQ(count, last + 1);
    last = count;
  };
  const ExploreStats stats = exploreReachable(g, root, policy);
  EXPECT_EQ(calls, stats.statesDiscovered);
  EXPECT_EQ(last, stats.statesDiscovered);
}

}  // namespace
}  // namespace boosting::analysis
