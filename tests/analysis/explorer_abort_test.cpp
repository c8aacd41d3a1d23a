// Abort hardening: when an expansion hook (standing in for any exception
// escaping an expansion) throws mid-exploration, exploreReachable must
// rethrow that exception, leave the StateGraph in a checked-consistent
// state, and leave the graph fully reusable for a fresh exploration.
#include "analysis/parallel_explorer.h"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/bivalence.h"
#include "analysis/por.h"
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

// A component that behaves like `inner` but whose apply() throws while
// `*armed` is set and `*budget` applies have already run.
class ThrowingComponent final : public ioa::Automaton {
 public:
  ThrowingComponent(const ioa::Automaton& inner, const bool* armed,
                    std::size_t* budget)
      : inner_(inner), armed_(armed), budget_(budget) {}
  std::string name() const override { return inner_.name(); }
  std::unique_ptr<ioa::AutomatonState> initialState() const override {
    return inner_.initialState();
  }
  std::vector<ioa::TaskId> tasks() const override { return inner_.tasks(); }
  std::optional<ioa::Action> enabledAction(
      const ioa::AutomatonState& s, const ioa::TaskId& t) const override {
    return inner_.enabledAction(s, t);
  }
  void apply(ioa::AutomatonState& s, const ioa::Action& a) const override {
    if (*armed_ && (*budget_)-- == 0) throw Boom();
    inner_.apply(s, a);
  }
  bool participates(const ioa::Action& a) const override {
    return inner_.participates(a);
  }
  TaskStructure taskStructure() const override {
    return inner_.taskStructure();
  }

 private:
  const ioa::Automaton& inner_;
  const bool* armed_;
  std::size_t* budget_;
};

// `inner` with every component wrapped in a ThrowingComponent.
std::unique_ptr<ioa::System> throwingCopy(const ioa::System& inner,
                                          const bool* armed,
                                          std::size_t* budget) {
  auto sys = std::make_unique<ioa::System>();
  for (int i = 0; i < inner.processCount(); ++i) {
    sys->addProcess(std::make_shared<ThrowingComponent>(
        inner.componentAtSlot(inner.slotForProcess(i)), armed, budget));
  }
  for (const int c : inner.serviceIds()) {
    sys->addService(std::make_shared<ThrowingComponent>(
                        inner.componentAtSlot(inner.slotForService(c)),
                        armed, budget),
                    inner.serviceMeta(c));
  }
  return sys;
}

TEST(ExplorerAbort, ThrowingTransitionOrphansWhatItDiscovered) {
  // A transition that throws in the middle of an expansion leaves the
  // nodes that expansion already interned without a committed list that
  // reaches them. They become orphans: the graph stays consistent, pathTo
  // refuses them, and the first committed list that reaches one adopts
  // it, so a finished exploration reconstructs every witness path.
  const auto inner = relay(3, 1);
  for (const PorMode por : {PorMode::Off, PorMode::Auto}) {
    // A throw at an expansion's first transition discovers nothing, so
    // count orphans over several detonation points.
    std::size_t orphans = 0;
    for (const std::size_t detonateAfter : {3u, 7u, 20u, 40u, 60u}) {
      SCOPED_TRACE("detonateAfter=" + std::to_string(detonateAfter) +
                   (por == PorMode::Off ? " por off" : " por auto"));
      bool armed = false;
      std::size_t budget = detonateAfter;
      const auto sys = throwingCopy(*inner, &armed, &budget);
      StateGraph g(*sys, nullptr, PorPolicy::forSystem(*sys, por));
      const NodeId root = g.intern(canonicalInitialization(*sys, 1));
      armed = true;
      EXPECT_THROW(exploreReachable(g, root), Boom);
      std::string why;
      ASSERT_TRUE(g.checkConsistent(&why)) << why;
      for (NodeId id = 0; id < g.size(); ++id) {
        try {
          (void)g.pathTo(id);
        } catch (const std::logic_error&) {
          ++orphans;
        }
      }
      armed = false;
      exploreReachable(g, root);
      ASSERT_TRUE(g.checkConsistent(&why)) << why;
      for (NodeId id = 0; id < g.size(); ++id) {
        ASSERT_EQ(g.rootOf(id), root);
        ioa::SystemState s = g.state(root);
        for (const Edge& e : g.pathTo(id)) sys->applyInPlace(s, e.action);
        ASSERT_TRUE(s.equals(g.state(id))) << "node " << id;
      }
    }
    EXPECT_GT(orphans, 0u);
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
