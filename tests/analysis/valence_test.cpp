// Valence (Section 3.2): exhaustive decision reachability. Unanimous
// initializations are univalent (validity), mixed ones bivalent for the
// relay candidate, uninitialized systems Null-valent, and valence evolves
// correctly along committing steps.
#include "analysis/valence.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "analysis/bivalence.h"
#include "processes/relay_consensus.h"
#include "sim/runner.h"

namespace boosting::analysis {
namespace {

using processes::buildRelayConsensusSystem;
using processes::RelaySystemSpec;

std::unique_ptr<ioa::System> relay(int n, int f) {
  RelaySystemSpec spec;
  spec.processCount = n;
  spec.objectResilience = f;
  spec.addScratchRegister = false;
  return buildRelayConsensusSystem(spec);
}

TEST(Valence, UnanimousZeroIsZeroValent) {
  auto sys = relay(2, 0);
  StateGraph g(*sys);
  ValenceAnalyzer va(g);
  NodeId root = g.intern(canonicalInitialization(*sys, 0));
  va.explore(root);
  EXPECT_EQ(va.valence(root), Valence::Zero);
  EXPECT_TRUE(va.canDecide(root, 0));
  EXPECT_FALSE(va.canDecide(root, 1));
}

TEST(Valence, UnanimousOneIsOneValent) {
  auto sys = relay(2, 0);
  StateGraph g(*sys);
  ValenceAnalyzer va(g);
  NodeId root = g.intern(canonicalInitialization(*sys, 2));
  va.explore(root);
  EXPECT_EQ(va.valence(root), Valence::One);
}

TEST(Valence, MixedInputsAreBivalentForRelay) {
  // Whichever proposal the object performs first wins, so both decisions
  // are reachable from a mixed initialization.
  auto sys = relay(2, 0);
  StateGraph g(*sys);
  ValenceAnalyzer va(g);
  NodeId root = g.intern(canonicalInitialization(*sys, 1));
  va.explore(root);
  EXPECT_EQ(va.valence(root), Valence::Bivalent);
  EXPECT_TRUE(va.canDecide(root, 0));
  EXPECT_TRUE(va.canDecide(root, 1));
}

TEST(Valence, UninitializedSystemIsNullValent) {
  auto sys = relay(2, 0);
  StateGraph g(*sys);
  ValenceAnalyzer va(g);
  NodeId root = g.intern(sys->initialState());
  va.explore(root);
  EXPECT_EQ(va.valence(root), Valence::Null);
  EXPECT_FALSE(va.canDecide(root, 0));
  EXPECT_FALSE(va.canDecide(root, 1));
}

TEST(Valence, CommittingStepMakesUnivalent) {
  // After the object performs P1's init(1) first, only decide(1) remains
  // reachable.
  auto sys = relay(2, 0);
  StateGraph g(*sys);
  ValenceAnalyzer va(g);
  NodeId root = g.intern(canonicalInitialization(*sys, 1));  // P0 gets 1
  va.explore(root);
  // P0 invokes init(1); object performs it.
  NodeId afterInvoke = g.successorVia(root, ioa::TaskId::process(0))->to;
  auto performEdge =
      g.successorVia(afterInvoke, ioa::TaskId::servicePerform(100, 0));
  ASSERT_TRUE(performEdge);
  EXPECT_EQ(va.valence(performEdge->to), Valence::One);
}

TEST(Valence, MonotoneAlongEdges) {
  // A successor's decision set is a subset of its predecessor's: no new
  // decisions appear by taking a step.
  auto sys = relay(2, 0);
  StateGraph g(*sys);
  ValenceAnalyzer va(g);
  NodeId root = g.intern(canonicalInitialization(*sys, 1));
  va.explore(root);
  std::vector<NodeId> stack{root};
  std::set<NodeId> seen{root};
  while (!stack.empty()) {
    NodeId x = stack.back();
    stack.pop_back();
    const bool x0 = va.canDecide(x, 0), x1 = va.canDecide(x, 1);
    for (const EdgeView e : g.successors(x)) {
      EXPECT_TRUE(x0 || !va.canDecide(e.to, 0));
      EXPECT_TRUE(x1 || !va.canDecide(e.to, 1));
      if (seen.insert(e.to).second) stack.push_back(e.to);
    }
  }
}

TEST(Valence, BivalentNodeHasAllSuccessorsExplored) {
  auto sys = relay(2, 0);
  StateGraph g(*sys);
  ValenceAnalyzer va(g);
  NodeId root = g.intern(canonicalInitialization(*sys, 1));
  va.explore(root);
  for (const EdgeView e : g.successors(root)) {
    EXPECT_TRUE(va.explored(e.to));
  }
}

TEST(Valence, ExploreIsIdempotent) {
  auto sys = relay(2, 0);
  StateGraph g(*sys);
  ValenceAnalyzer va(g);
  NodeId root = g.intern(canonicalInitialization(*sys, 1));
  va.explore(root);
  const std::size_t count = va.exploredCount();
  va.explore(root);
  EXPECT_EQ(va.exploredCount(), count);
  EXPECT_EQ(va.valence(root), Valence::Bivalent);
}

TEST(Valence, OverlappingRegionsConsistent) {
  auto sys = relay(2, 0);
  StateGraph g(*sys);
  ValenceAnalyzer va(g);
  NodeId mixed = g.intern(canonicalInitialization(*sys, 1));
  va.explore(mixed);
  // A successor region overlaps the already-explored one; valences must
  // stay consistent when explored from the new root.
  NodeId after = g.successorVia(mixed, ioa::TaskId::process(0))->to;
  va.explore(after);
  EXPECT_EQ(va.valence(mixed), Valence::Bivalent);
  EXPECT_TRUE(va.explored(after));
}

TEST(Valence, ExploredSuccessorsSeedTheirPredecessors) {
  // Explore each successor of a node first: the node's own region is then
  // the node alone, and its valence must come entirely from the final bits
  // of the already-explored targets its edges reach.
  auto sys = relay(2, 0);
  StateGraph ref(*sys);
  ValenceAnalyzer refVa(ref);
  const NodeId refRoot = ref.intern(canonicalInitialization(*sys, 1));
  refVa.explore(refRoot);

  StateGraph g(*sys);
  ValenceAnalyzer va(g);
  const NodeId root = g.intern(canonicalInitialization(*sys, 1));
  std::vector<NodeId> children;
  for (const EdgeView e : g.successors(root)) children.push_back(e.to);
  ASSERT_FALSE(children.empty());
  for (NodeId c : children) va.explore(c);
  const std::size_t before = va.exploredCount();
  va.explore(root);
  EXPECT_EQ(va.exploredCount(), before + 1);
  EXPECT_EQ(va.valence(root), refVa.valence(refRoot));
  EXPECT_EQ(va.valence(root), Valence::Bivalent);
  // Every node of the child-first graph agrees with the same configuration
  // in the reference graph (which holds all of them already).
  const std::size_t refSize = ref.size();
  for (NodeId id = 0; id < g.size(); ++id) {
    ASSERT_TRUE(va.explored(id));
    const NodeId same = ref.intern(g.state(id));
    ASSERT_LT(same, refSize);
    EXPECT_EQ(va.valence(id), refVa.valence(same)) << "node " << id;
  }
}

TEST(Valence, UnexploredNodeThrows) {
  auto sys = relay(2, 0);
  StateGraph g(*sys);
  ValenceAnalyzer va(g);
  NodeId root = g.intern(canonicalInitialization(*sys, 1));
  EXPECT_THROW(va.valence(root), std::logic_error);
}

TEST(Valence, CertificateAgreesWithRandomSimulation) {
  // Cross-validation of the exhaustive certificate against independent
  // random fair runs: from a 0-valent configuration every completed run
  // decides 0; from a bivalent one both decisions occur across seeds.
  auto sys = relay(2, 1);
  StateGraph g(*sys);
  ValenceAnalyzer va(g);
  NodeId mixed = g.intern(canonicalInitialization(*sys, 1));
  va.explore(mixed);
  ASSERT_EQ(va.valence(mixed), Valence::Bivalent);
  // Commit to 1: P0 (input 1) invokes and the object performs it.
  NodeId afterInvoke = g.successorVia(mixed, ioa::TaskId::process(0))->to;
  NodeId committed =
      g.successorVia(afterInvoke, ioa::TaskId::servicePerform(100, 0))->to;
  ASSERT_EQ(va.valence(committed), Valence::One);

  std::set<util::Value> decisionsFromMixed, decisionsFromCommitted;
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    for (auto [start, sink] :
         {std::pair{mixed, &decisionsFromMixed},
          std::pair{committed, &decisionsFromCommitted}}) {
      sim::RunConfig cfg;
      cfg.startState = g.state(start);
      cfg.scheduler = sim::RunConfig::Sched::Random;
      cfg.seed = seed;
      // The start state already holds the inputs; count decisions from the
      // run's decide actions.
      cfg.stopWhenAllDecided = false;
      cfg.maxSteps = 500;
      auto r = sim::run(*sys, cfg);
      for (const auto& [i, v] : r.exec.decisions()) {
        (void)i;
        sink->insert(v);
      }
    }
  }
  EXPECT_EQ(decisionsFromCommitted,
            (std::set<util::Value>{util::Value(1)}));
  EXPECT_EQ(decisionsFromMixed,
            (std::set<util::Value>{util::Value(0), util::Value(1)}));
}

TEST(Valence, ThreeProcessRelayMixedBivalent) {
  auto sys = relay(3, 1);
  StateGraph g(*sys);
  ValenceAnalyzer va(g);
  NodeId root = g.intern(canonicalInitialization(*sys, 2));
  va.explore(root);
  EXPECT_EQ(va.valence(root), Valence::Bivalent);
}

}  // namespace
}  // namespace boosting::analysis
