// Lemma 5 / Fig. 3: the hook search finds, from a bivalent initialization,
// a vertex alpha and tasks e, e' with e(alpha) 0-valent and e(e'(alpha))
// 1-valent (up to label swap) -- the exact Fig. 2 pattern.
#include "analysis/hook.h"

#include <gtest/gtest.h>

#include "analysis/bivalence.h"
#include "analysis/por.h"
#include "analysis/symmetry.h"
#include "processes/relay_consensus.h"
#include "processes/tob_consensus.h"

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

struct HookFixture {
  std::unique_ptr<ioa::System> sys;
  std::unique_ptr<StateGraph> g;
  std::unique_ptr<ValenceAnalyzer> va;
  HookSearchOutcome outcome;

  explicit HookFixture(std::unique_ptr<ioa::System> system)
      : sys(std::move(system)) {
    g = std::make_unique<StateGraph>(*sys);
    va = std::make_unique<ValenceAnalyzer>(*g);
    auto biv = findBivalentInitialization(*g, *va);
    EXPECT_TRUE(biv.bivalent.has_value());
    outcome = findHook(*g, *va, biv.bivalent->node);
  }
};

TEST(Hook, FoundForTwoProcessRelay) {
  HookFixture fx(relay(2, 0));
  ASSERT_TRUE(fx.outcome.hook.has_value());
  EXPECT_FALSE(fx.outcome.fairCycle);
}

TEST(Hook, StructureMatchesFigTwo) {
  HookFixture fx(relay(2, 0));
  ASSERT_TRUE(fx.outcome.hook.has_value());
  const Hook& h = *fx.outcome.hook;
  // alpha is bivalent; the two e-extensions have opposite valences.
  EXPECT_EQ(fx.va->valence(h.alpha), Valence::Bivalent);
  EXPECT_EQ(fx.va->valence(h.alpha0), h.alpha0Valence);
  EXPECT_EQ(fx.va->valence(h.alpha1), h.alpha1Valence);
  EXPECT_NE(h.alpha0Valence, h.alpha1Valence);
  // Structural equations of Fig. 2.
  auto e0 = fx.g->successorVia(h.alpha, h.e);
  ASSERT_TRUE(e0);
  EXPECT_EQ(e0->to, h.alpha0);
  auto ep = fx.g->successorVia(h.alpha, h.ePrime);
  ASSERT_TRUE(ep);
  EXPECT_EQ(ep->to, h.alphaPrime);
  auto e1 = fx.g->successorVia(h.alphaPrime, h.e);
  ASSERT_TRUE(e1);
  EXPECT_EQ(e1->to, h.alpha1);
}

TEST(Hook, TasksDiffer) {
  // Claim 1 of Lemma 8: e != e' for any genuine hook.
  HookFixture fx(relay(2, 0));
  ASSERT_TRUE(fx.outcome.hook.has_value());
  EXPECT_NE(fx.outcome.hook->e, fx.outcome.hook->ePrime);
}

TEST(Hook, AlphaPrimeRemainBivalentOrCommitting) {
  // e'(alpha) extends a bivalent alpha; since e(e'(alpha)) is univalent in
  // one direction and alpha0 in the other, alpha' itself must still allow
  // both decisions or be univalent toward alpha1's side.
  HookFixture fx(relay(2, 0));
  ASSERT_TRUE(fx.outcome.hook.has_value());
  const Hook& h = *fx.outcome.hook;
  const Valence vp = fx.va->valence(h.alphaPrime);
  EXPECT_TRUE(vp == Valence::Bivalent || vp == h.alpha1Valence);
}

TEST(Hook, FoundForThreeProcessRelay) {
  HookFixture fx(relay(3, 0));
  ASSERT_TRUE(fx.outcome.hook.has_value());
}

TEST(Hook, FoundForOneResilientObject) {
  HookFixture fx(relay(3, 1));
  ASSERT_TRUE(fx.outcome.hook.has_value());
}

TEST(Hook, FoundForBridgeCandidate) {
  processes::BridgeSystemSpec spec;
  HookFixture fx(processes::buildBridgeConsensusSystem(spec));
  ASSERT_TRUE(fx.outcome.hook.has_value());
}

TEST(Hook, FoundForTOBCandidate) {
  processes::TOBConsensusSpec spec;
  spec.processCount = 2;
  spec.serviceResilience = 0;
  HookFixture fx(processes::buildTOBConsensusSystem(spec));
  ASSERT_TRUE(fx.outcome.hook.has_value());
}

TEST(Hook, CommittingTaskTouchesTheSharedObject) {
  // For the relay candidate the only way to commit a decision is the
  // consensus object's perform step, so e (or the hook context) must
  // involve service 100.
  HookFixture fx(relay(2, 0));
  ASSERT_TRUE(fx.outcome.hook.has_value());
  const Hook& h = *fx.outcome.hook;
  const bool eOnService = h.e.owner != ioa::TaskOwner::Process &&
                          h.e.component == 100;
  EXPECT_TRUE(eOnService) << "e = " << h.e.str();
}

TEST(Hook, ThrowsOnNonBivalentStart) {
  auto sys = relay(2, 0);
  StateGraph g(*sys);
  ValenceAnalyzer va(g);
  NodeId zero = g.intern(canonicalInitialization(*sys, 0));
  va.explore(zero);
  EXPECT_THROW(findHook(g, va, zero), std::logic_error);
}

// The walk's (node, cursor) history is a sparse per-iteration map. These
// outcomes were recorded with the earlier dense states x tasks history on
// the analyzer's candidate builds (PreferDummy, symmetry off); the walk,
// its node ids and the hook it stops at must not move.
struct PinnedWalk {
  NodeId init;
  std::size_t iterations;
  NodeId alpha, alpha0, alphaPrime, alpha1;
  int ePerformer, ePrimePerformer;  // both tasks are perform tasks
  std::size_t statesTouched;
};

void expectPinnedWalk(std::unique_ptr<ioa::System> sys, PorMode por,
                      int serviceId, const PinnedWalk& want) {
  StateGraph g(*sys, SymmetryPolicy::forSystem(*sys, SymmetryMode::Off),
               PorPolicy::forSystem(*sys, por));
  EXPECT_EQ(g.porActive(), por == PorMode::On);
  ValenceAnalyzer va(g);
  const auto biv = findBivalentInitialization(g, va);
  ASSERT_TRUE(biv.bivalent.has_value());
  EXPECT_EQ(biv.bivalent->node, want.init);
  const HookSearchOutcome o = findHook(g, va, biv.bivalent->node);
  EXPECT_FALSE(o.fairCycle);
  EXPECT_EQ(o.iterations, want.iterations);
  ASSERT_TRUE(o.hook.has_value());
  EXPECT_EQ(o.hook->alpha, want.alpha);
  EXPECT_EQ(o.hook->alpha0, want.alpha0);
  EXPECT_EQ(o.hook->alphaPrime, want.alphaPrime);
  EXPECT_EQ(o.hook->alpha1, want.alpha1);
  EXPECT_EQ(o.hook->e, ioa::TaskId::servicePerform(serviceId, want.ePerformer));
  EXPECT_EQ(o.hook->ePrime,
            ioa::TaskId::servicePerform(serviceId, want.ePrimePerformer));
  EXPECT_EQ(o.hook->alpha0Valence, Valence::One);
  EXPECT_EQ(o.hook->alpha1Valence, Valence::Zero);
  EXPECT_EQ(o.statesTouched, want.statesTouched);
  EXPECT_TRUE(isGenuineHook(g, va, *o.hook));
}

std::unique_ptr<ioa::System> analyzerRelay(int n, int f) {
  RelaySystemSpec spec;
  spec.processCount = n;
  spec.objectResilience = f;
  spec.policy = services::DummyPolicy::PreferDummy;
  return buildRelayConsensusSystem(spec);
}

TEST(HookPinned, RelayFiveWithPor) {
  expectPinnedWalk(analyzerRelay(5, 1), PorMode::On, 100,
                   {653, 5, 658, 659, 660, 5682, 0, 1, 6066});
}

TEST(HookPinned, RelayFiveWithoutPor) {
  expectPinnedWalk(analyzerRelay(5, 1), PorMode::Off, 100,
                   {3125, 5, 3255, 3396, 3397, 3640, 0, 1, 27318});
}

// tob n=3 f=1 as the analyzer builds it, POR on by default (tob declares
// its task structure). The walk's corners depend only on the BFS order of
// its scans, not on how their visited set and discovery tree are stored.
TEST(HookPinned, TOBThree) {
  processes::TOBConsensusSpec spec;
  spec.processCount = 3;
  spec.serviceResilience = 1;
  spec.policy = services::DummyPolicy::PreferDummy;
  const auto sys = processes::buildTOBConsensusSystem(spec);
  StateGraph g(*sys, SymmetryPolicy::forSystem(*sys, SymmetryMode::Off),
               PorPolicy::forSystem(*sys, PorMode::Auto));
  ValenceAnalyzer va(g);
  const auto biv = findBivalentInitialization(g, va);
  ASSERT_TRUE(biv.bivalent.has_value());
  EXPECT_EQ(biv.bivalent->node, 1889u);
  const HookSearchOutcome o = findHook(g, va, biv.bivalent->node);
  EXPECT_FALSE(o.fairCycle);
  ASSERT_TRUE(o.hook.has_value());
  EXPECT_TRUE(isGenuineHook(g, va, *o.hook));
  EXPECT_EQ(o.iterations, 3u);
  EXPECT_EQ(o.hook->alpha, 1899u);
  EXPECT_EQ(o.hook->alpha0, 1909u);
  EXPECT_EQ(o.hook->alphaPrime, 1910u);
  EXPECT_EQ(o.hook->alpha1, 1930u);
  EXPECT_EQ(o.hook->e.str(), "task(S400.0-perform)");
  EXPECT_EQ(o.hook->ePrime.str(), "task(S400.1-perform)");
  EXPECT_EQ(o.statesTouched, 9025u);
}

TEST(HookPinned, BridgeFour) {
  processes::BridgeSystemSpec spec;
  spec.processCount = 4;
  spec.bridgeEndpoint = 2;
  spec.objectResilience = 1;
  spec.policy = services::DummyPolicy::PreferDummy;
  expectPinnedWalk(processes::buildBridgeConsensusSystem(spec), PorMode::Off,
                   101, {825, 4, 859, 892, 893, 948, 0, 1, 5151});
}

}  // namespace
}  // namespace boosting::analysis
