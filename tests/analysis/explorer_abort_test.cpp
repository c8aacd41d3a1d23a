// Worker-abort hardening: when an expansion hook (standing in for any
// exception escaping a worker) throws mid-exploration, the engine must
// rethrow that exception, leave the StateGraph in a checked-consistent
// state, poison install(), and leave the graph fully reusable for a fresh
// exploration.
#include "analysis/parallel_explorer.h"

#include <gtest/gtest.h>

#include <atomic>
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

ExplorationPolicy throwAfter(unsigned threads, std::size_t expansions) {
  ExplorationPolicy policy;
  policy.threads = threads;
  policy.expansionHook = [expansions](std::size_t count) {
    if (count > expansions) throw Boom();
  };
  return policy;
}

TEST(ExplorerAbort, WorkerThrowLeavesGraphConsistentAndPoisonsInstall) {
  auto sys = relay(3, 1);
  StateGraph g(*sys);
  ParallelExplorer ex(g, throwAfter(2, 10));
  EXPECT_THROW(ex.expand({canonicalInitialization(*sys, 1)}), Boom);
  std::string why;
  EXPECT_TRUE(g.checkConsistent(&why)) << why;
  EXPECT_THROW(ex.install(0), std::logic_error);
  // Phase 1 never touches the graph, so nothing may have leaked into it.
  EXPECT_EQ(g.stats().statesDiscovered, g.size());
}

TEST(ExplorerAbort, ImmediateThrowAborts) {
  // Hook throws on the very first expansion: the root state itself.
  auto sys = relay(2, 0);
  StateGraph g(*sys);
  ParallelExplorer ex(g, throwAfter(2, 0));
  EXPECT_THROW(ex.expand({canonicalInitialization(*sys, 1)}), Boom);
  std::string why;
  EXPECT_TRUE(g.checkConsistent(&why)) << why;
  EXPECT_THROW(ex.install(0), std::logic_error);
}

TEST(ExplorerAbort, GraphReusableAfterParallelAbort) {
  auto sys = relay(3, 1);
  StateGraph g(*sys);
  const NodeId root = g.intern(canonicalInitialization(*sys, 1));
  {
    ParallelExplorer ex(g, throwAfter(2, 25));
    EXPECT_THROW(ex.expand({g.state(root)}), Boom);
  }
  // A fresh exploration over the same graph must complete and agree with a
  // from-scratch serial exploration.
  ExplorationPolicy serial;
  const ExploreStats after = exploreReachable(g, root, serial);
  std::string why;
  ASSERT_TRUE(g.checkConsistent(&why)) << why;

  auto sys2 = relay(3, 1);
  StateGraph g2(*sys2);
  const NodeId root2 = g2.intern(canonicalInitialization(*sys2, 1));
  const ExploreStats fresh = exploreReachable(g2, root2, serial);
  EXPECT_EQ(after.statesDiscovered, fresh.statesDiscovered);
  EXPECT_EQ(after.edgesComputed, fresh.edgesComputed);
  EXPECT_EQ(g.size(), g2.size());
}

TEST(ExplorerAbort, SerialThrowLeavesGraphConsistent) {
  // threads = 1 takes the legacy BFS path; the same guarantees must hold
  // there (minus install(), which the serial path never uses).
  auto sys = relay(3, 1);
  StateGraph g(*sys);
  const NodeId root = g.intern(canonicalInitialization(*sys, 1));
  EXPECT_THROW(exploreReachable(g, root, throwAfter(1, 30)), Boom);
  std::string why;
  EXPECT_TRUE(g.checkConsistent(&why)) << why;
  // Finish the job serially; the graph must still be exactly right.
  const ExploreStats done = exploreReachable(g, root, ExplorationPolicy{});
  EXPECT_GT(done.statesDiscovered, 0u);
  ASSERT_TRUE(g.checkConsistent(&why)) << why;
}

TEST(ExplorerAbort, MidBatchThrowDrainsAndPoisons) {
  // With four shards and few expansions between throws, workers die while
  // their per-shard batch buffers still hold un-flushed successors. The
  // abort path must drain-and-poison those batches: the inflight token
  // accounting may not wedge the join, the graph stays consistent, and
  // install() is poisoned.
  auto sys = relay(3, 1);
  for (const std::size_t detonateAfter : {1u, 3u, 7u, 20u, 60u}) {
    StateGraph g(*sys);
    ParallelExplorer ex(g, throwAfter(4, detonateAfter));
    EXPECT_THROW(ex.expand({canonicalInitialization(*sys, 1)}), Boom)
        << "detonateAfter=" << detonateAfter;
    std::string why;
    EXPECT_TRUE(g.checkConsistent(&why))
        << "detonateAfter=" << detonateAfter << ": " << why;
    EXPECT_THROW(ex.install(0), std::logic_error)
        << "detonateAfter=" << detonateAfter;
    EXPECT_EQ(g.stats().statesDiscovered, g.size());
  }
}

TEST(ExplorerAbort, GraphReusableAfterMidBatchAbort) {
  // After a mid-batch abort the same graph must support a fresh, complete
  // parallel exploration that agrees with a from-scratch serial one.
  auto sys = relay(3, 1);
  StateGraph g(*sys);
  const NodeId root = g.intern(canonicalInitialization(*sys, 1));
  {
    ParallelExplorer ex(g, throwAfter(4, 5));
    EXPECT_THROW(ex.expand({g.state(root)}), Boom);
  }
  ExplorationPolicy parallel;
  parallel.threads = 2;
  const ExploreStats after = exploreReachable(g, root, parallel);
  std::string why;
  ASSERT_TRUE(g.checkConsistent(&why)) << why;

  auto sys2 = relay(3, 1);
  StateGraph g2(*sys2);
  const NodeId root2 = g2.intern(canonicalInitialization(*sys2, 1));
  const ExploreStats fresh = exploreReachable(g2, root2, ExplorationPolicy{});
  EXPECT_EQ(after.statesDiscovered, fresh.statesDiscovered);
  EXPECT_EQ(after.edgesComputed, fresh.edgesComputed);
  EXPECT_EQ(g.size(), g2.size());
}

TEST(ExplorerAbort, HookSeesMonotonicCountAcrossWorkers) {
  // The hook receives the global running expansion count; with a
  // non-throwing hook the exploration must complete and the count must
  // have reached the number of states expanded.
  auto sys = relay(3, 1);
  StateGraph g(*sys);
  const NodeId root = g.intern(canonicalInitialization(*sys, 1));
  std::atomic<std::size_t> peak{0};
  ExplorationPolicy policy;
  policy.threads = 2;
  policy.expansionHook = [&peak](std::size_t count) {
    std::size_t prev = peak.load();
    while (prev < count && !peak.compare_exchange_weak(prev, count)) {
    }
  };
  const ExploreStats stats = exploreReachable(g, root, policy);
  EXPECT_EQ(peak.load(), stats.statesDiscovered);
}

}  // namespace
}  // namespace boosting::analysis
