// Differential check for the symmetry quotient: the adversary pipeline
// must reach the SAME verdict, the same initialization valences and a
// genuinely replayable witness whether or not orbit canonicalization is
// active. Soundness of the reduction rests on equivariance plus the
// similarity lemmas (see DESIGN.md "Symmetry reduction"); this suite is
// the executable form of that argument on every n=3 fixture, including
// the candidates where the reduction must REFUSE to apply (asymmetric
// connection patterns, undeclared symmetry), and of the default: Auto is
// POR alone, identical to Off.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "analysis/adversary.h"
#include "processes/flooding_consensus.h"
#include "processes/relay_consensus.h"
#include "processes/rotating_consensus.h"
#include "processes/tob_consensus.h"
#include "sim/trace_io.h"

namespace boosting::analysis {
namespace {

std::unique_ptr<ioa::System> relayFixture(int n, int f) {
  processes::RelaySystemSpec spec;
  spec.processCount = n;
  spec.objectResilience = f;
  spec.policy = services::DummyPolicy::PreferDummy;
  return processes::buildRelayConsensusSystem(spec);
}

std::unique_ptr<ioa::System> floodingFixture(int n, int f) {
  processes::FloodingConsensusSpec spec;
  spec.processCount = n;
  spec.channelResilience = f;
  spec.policy = services::DummyPolicy::PreferDummy;
  return processes::buildFloodingConsensusSystem(spec);
}

std::unique_ptr<ioa::System> tobFixture(int n, int f) {
  processes::TOBConsensusSpec spec;
  spec.processCount = n;
  spec.serviceResilience = f;
  spec.policy = services::DummyPolicy::PreferDummy;
  return processes::buildTOBConsensusSystem(spec);
}

std::unique_ptr<ioa::System> bridgeFixture(int n, int f) {
  processes::BridgeSystemSpec spec;
  spec.processCount = n;
  spec.bridgeEndpoint = n / 2;
  spec.objectResilience = f;
  spec.policy = services::DummyPolicy::PreferDummy;
  return processes::buildBridgeConsensusSystem(spec);
}

std::unique_ptr<ioa::System> singleFdFixture(int n, int f) {
  processes::SingleFDConsensusSpec spec;
  spec.processCount = n;
  spec.fdResilience = f;
  spec.policy = services::DummyPolicy::PreferDummy;
  return processes::buildSingleFDRotatingConsensusSystem(spec);
}

AdversaryReport runWith(const ioa::System& sys, int claim, SymmetryMode mode,
                        bool exemptFailureAware = false,
                        PorMode por = PorMode::Off) {
  AdversaryConfig cfg;
  cfg.claimedFailures = claim;
  cfg.exemptFailureAware = exemptFailureAware;
  cfg.symmetry = mode;
  cfg.por = por;
  return analyzeConsensusCandidate(sys, cfg);
}

// Valences are orbit-invariant, so the per-initialization outcomes must
// match exactly (node ids live in different graphs and are not compared).
void expectSameProofShape(const AdversaryReport& off,
                          const AdversaryReport& on) {
  EXPECT_EQ(off.verdict, on.verdict)
      << "off: " << off.summary() << "\non: " << on.summary();
  ASSERT_EQ(off.initializations.size(), on.initializations.size());
  for (std::size_t i = 0; i < off.initializations.size(); ++i) {
    EXPECT_EQ(off.initializations[i].onesPrefix,
              on.initializations[i].onesPrefix);
    EXPECT_EQ(off.initializations[i].valence, on.initializations[i].valence)
        << "initialization " << off.initializations[i].onesPrefix;
  }
  EXPECT_EQ(off.bivalentInit.has_value(), on.bivalentInit.has_value());
  if (off.bivalentInit && on.bivalentInit) {
    EXPECT_EQ(off.bivalentInit->onesPrefix, on.bivalentInit->onesPrefix);
  }
  EXPECT_EQ(off.fairCycle, on.fairCycle);
}

// The quotient witness is lifted back through the canonicalization
// permutations, so it must replay as a real execution of the UNreduced
// system: apply every action from the initial state, reproduce the failure
// set, and never let a correct process decide (the termination violation).
void expectWitnessIsConcrete(const ioa::System& sys,
                             const AdversaryReport& report) {
  ASSERT_EQ(report.verdict, AdversaryReport::Verdict::TerminationViolation);
  ASSERT_FALSE(report.witness.empty());
  ioa::SystemState s = sys.initialState();
  for (const ioa::Action& a : report.witness.actions()) {
    ASSERT_NO_THROW(sys.applyInPlace(s, a)) << a.str();
  }
  EXPECT_EQ(report.witness.failedEndpoints(), report.witnessFailures);
  for (const ioa::Action& a : report.witness.actions()) {
    if (a.kind == ioa::ActionKind::EnvDecide) {
      EXPECT_TRUE(report.witnessFailures.count(a.endpoint))
          << "correct process decided in the lifted witness: " << a.str();
    }
  }
}

TEST(SymmetryEquivalence, RelayN3FZero) {
  auto sys = relayFixture(3, 0);
  const auto off = runWith(*sys, 1, SymmetryMode::Off);
  const auto on = runWith(*sys, 1, SymmetryMode::On);
  expectSameProofShape(off, on);
  EXPECT_FALSE(off.symmetryReduced);
  EXPECT_TRUE(on.symmetryReduced) << on.symmetryNote;
  EXPECT_LT(on.statesExplored, off.statesExplored);
  EXPECT_GT(on.symmetryOrbitsCollapsed, 0u);
  EXPECT_GE(on.symmetryStatesRaw, on.statesExplored);
}

TEST(SymmetryEquivalence, RelayN3FOne) {
  // The genuinely-boosting claim (f = 1 -> 2): the heart of Theorem 2.
  auto sys = relayFixture(3, 1);
  const auto off = runWith(*sys, 2, SymmetryMode::Off);
  const auto on = runWith(*sys, 2, SymmetryMode::On);
  expectSameProofShape(off, on);
  EXPECT_TRUE(on.symmetryReduced) << on.symmetryNote;
  EXPECT_LT(on.statesExplored, off.statesExplored);
  EXPECT_EQ(off.witnessFailures.size(), on.witnessFailures.size());
}

TEST(SymmetryEquivalence, RelayN6FOneMatchesPorAlone) {
  // The largest cell: the colour-sort quotient at n=6 against the default
  // POR-alone run, down to the Lemma-8 classification of the hook.
  auto sys = relayFixture(6, 1);
  const auto off = runWith(*sys, 2, SymmetryMode::Off,
                           /*exemptFailureAware=*/false, PorMode::Auto);
  const auto on = runWith(*sys, 2, SymmetryMode::On,
                          /*exemptFailureAware=*/false, PorMode::Auto);
  expectSameProofShape(off, on);
  EXPECT_TRUE(on.symmetryReduced) << on.symmetryNote;
  EXPECT_LT(on.statesExplored, off.statesExplored);
  EXPECT_EQ(off.classification.kind, on.classification.kind);
  EXPECT_EQ(off.classification.index, on.classification.index);
  EXPECT_EQ(off.classification.viaEPrime, on.classification.viaEPrime);
  expectWitnessIsConcrete(*sys, on);
}

TEST(SymmetryEquivalence, TOBN3DeclinesWithoutDeclaredSymmetry) {
  auto sys = tobFixture(3, 0);
  const auto off = runWith(*sys, 1, SymmetryMode::Off);
  const auto on = runWith(*sys, 1, SymmetryMode::On);
  // No declared symmetry: On must fall back to the identity group, say
  // why, and reproduce the legacy run bit-for-bit.
  EXPECT_FALSE(on.symmetryReduced);
  EXPECT_FALSE(on.symmetryNote.empty());
  expectSameProofShape(off, on);
  EXPECT_EQ(off.statesExplored, on.statesExplored);
}

TEST(SymmetryEquivalence, BridgeN3AsymmetricTopologyDeclines) {
  auto sys = bridgeFixture(3, 0);
  const auto off = runWith(*sys, 1, SymmetryMode::Off);
  const auto on = runWith(*sys, 1, SymmetryMode::On);
  EXPECT_FALSE(on.symmetryReduced);
  EXPECT_FALSE(on.symmetryNote.empty());
  expectSameProofShape(off, on);
  EXPECT_EQ(off.statesExplored, on.statesExplored);
}

TEST(SymmetryEquivalence, SingleFDN3Theorem10Mode) {
  auto sys = singleFdFixture(3, 0);
  const auto off =
      runWith(*sys, 1, SymmetryMode::Off, /*exemptFailureAware=*/true);
  const auto on =
      runWith(*sys, 1, SymmetryMode::On, /*exemptFailureAware=*/true);
  expectSameProofShape(off, on);
}

TEST(SymmetryEquivalence, RelayWitnessLiftsToConcreteExecution) {
  auto sys = relayFixture(3, 1);
  const auto on = runWith(*sys, 2, SymmetryMode::On);
  ASSERT_TRUE(on.symmetryReduced) << on.symmetryNote;
  expectWitnessIsConcrete(*sys, on);
}

TEST(SymmetryEquivalence, OnEnablesForDeclaredSymmetryOnly) {
  {
    auto sys = relayFixture(3, 0);
    const auto r = runWith(*sys, 1, SymmetryMode::On);
    EXPECT_TRUE(r.symmetryReduced) << r.symmetryNote;
  }
  {
    auto sys = tobFixture(3, 0);
    const auto r = runWith(*sys, 1, SymmetryMode::On);
    EXPECT_FALSE(r.symmetryReduced);
  }
  {
    // Flood states name their senders: no id-free symmetry is declared.
    auto sys = floodingFixture(3, 0);
    const auto r = runWith(*sys, 1, SymmetryMode::On);
    EXPECT_FALSE(r.symmetryReduced);
  }
}

// Auto is the front ends' default and resolves to the identity group: with
// POR at its own default, the whole report -- not just the proof shape --
// must equal the --symmetry off report, witness text included.
TEST(SymmetryEquivalence, AutoIsPorAlone) {
  struct Fixture {
    std::string name;
    std::unique_ptr<ioa::System> sys;
    int claim;
  };
  std::vector<Fixture> fixtures;
  for (int n = 3; n <= 5; ++n) {
    fixtures.push_back({"relay n=" + std::to_string(n), relayFixture(n, 1), 2});
  }
  fixtures.push_back({"flooding n=3", floodingFixture(3, 1), 2});
  fixtures.push_back({"tob n=3", tobFixture(3, 1), 2});
  fixtures.push_back({"bridge n=4", bridgeFixture(4, 1), 2});
  fixtures.push_back({"single-fd n=3", singleFdFixture(3, 0), 1});
  for (const Fixture& fx : fixtures) {
    SCOPED_TRACE(fx.name);
    const auto off = runWith(*fx.sys, fx.claim, SymmetryMode::Off,
                             /*exemptFailureAware=*/true, PorMode::Auto);
    const auto autoMode = runWith(*fx.sys, fx.claim, SymmetryMode::Auto,
                                  /*exemptFailureAware=*/true, PorMode::Auto);
    EXPECT_FALSE(autoMode.symmetryReduced);
    EXPECT_EQ(autoMode.symmetryStatesRaw, 0u);
    EXPECT_EQ(autoMode.verdict, off.verdict);
    EXPECT_EQ(autoMode.summary(), off.summary());
    ASSERT_EQ(autoMode.initializations.size(), off.initializations.size());
    for (std::size_t i = 0; i < off.initializations.size(); ++i) {
      EXPECT_EQ(autoMode.initializations[i].onesPrefix,
                off.initializations[i].onesPrefix);
      EXPECT_EQ(autoMode.initializations[i].valence,
                off.initializations[i].valence);
      EXPECT_EQ(autoMode.initializations[i].node, off.initializations[i].node);
    }
    ASSERT_EQ(autoMode.hook.has_value(), off.hook.has_value());
    if (off.hook) {
      EXPECT_EQ(autoMode.hook->alpha, off.hook->alpha);
      EXPECT_EQ(autoMode.hook->e, off.hook->e);
      EXPECT_EQ(autoMode.hook->ePrime, off.hook->ePrime);
    }
    EXPECT_EQ(autoMode.porReduced, off.porReduced);
    EXPECT_EQ(autoMode.statesExplored, off.statesExplored);
    EXPECT_EQ(sim::renderExecution(autoMode.witness),
              sim::renderExecution(off.witness));
  }
  // Flooding declares no process symmetry, so even On declines and says so.
  auto flooding = floodingFixture(3, 1);
  const auto floodingOn = runWith(*flooding, 2, SymmetryMode::On,
                                  /*exemptFailureAware=*/true, PorMode::Auto);
  EXPECT_FALSE(floodingOn.symmetryReduced);
  EXPECT_EQ(floodingOn.symmetryNote, "candidate declares no process symmetry");
}

TEST(SymmetryEquivalence, OffIsTheLibraryDefault) {
  // Library callers who never touch cfg.symmetry must keep the legacy
  // engine bit-for-bit (CLI opts into Auto explicitly).
  AdversaryConfig cfg;
  EXPECT_EQ(cfg.symmetry, SymmetryMode::Off);
}

}  // namespace
}  // namespace boosting::analysis
