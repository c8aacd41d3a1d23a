// Differential check for the symmetry quotient: the adversary pipeline
// must reach the SAME verdict, the same initialization valences and a
// genuinely replayable witness whether or not orbit canonicalization is
// active. Soundness of the reduction rests on equivariance plus the
// similarity lemmas (see DESIGN.md "Symmetry reduction"); this suite is
// the executable form of that argument on every n=3 fixture, including
// the candidates where the reduction must REFUSE to apply (asymmetric
// connection patterns, undeclared symmetry).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "analysis/adversary.h"
#include "processes/flooding_consensus.h"
#include "processes/relay_consensus.h"
#include "processes/rotating_consensus.h"
#include "processes/tob_consensus.h"

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

AdversaryReport runWith(const ioa::System& sys, int claim, SymmetryMode mode,
                        bool exemptFailureAware = false) {
  AdversaryConfig cfg;
  cfg.claimedFailures = claim;
  cfg.exemptFailureAware = exemptFailureAware;
  cfg.symmetry = mode;
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

TEST(SymmetryEquivalence, FloodingN3IdSensitive) {
  // Flood states embed sender identities, so this exercises the
  // full-group relabeledState strategy rather than the id-free sort.
  auto sys = floodingFixture(3, 0);
  const auto off = runWith(*sys, 1, SymmetryMode::Off);
  const auto on = runWith(*sys, 1, SymmetryMode::On);
  expectSameProofShape(off, on);
  EXPECT_TRUE(on.symmetryReduced) << on.symmetryNote;
  EXPECT_LT(on.statesExplored, off.statesExplored);
}

TEST(SymmetryEquivalence, TOBN3DeclinesWithoutDeclaredSymmetry) {
  processes::TOBConsensusSpec spec;
  spec.processCount = 3;
  spec.serviceResilience = 0;
  spec.policy = services::DummyPolicy::PreferDummy;
  auto sys = processes::buildTOBConsensusSystem(spec);
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
  processes::BridgeSystemSpec spec;
  spec.processCount = 3;
  spec.policy = services::DummyPolicy::PreferDummy;
  auto sys = processes::buildBridgeConsensusSystem(spec);
  const auto off = runWith(*sys, 1, SymmetryMode::Off);
  const auto on = runWith(*sys, 1, SymmetryMode::On);
  EXPECT_FALSE(on.symmetryReduced);
  EXPECT_FALSE(on.symmetryNote.empty());
  expectSameProofShape(off, on);
  EXPECT_EQ(off.statesExplored, on.statesExplored);
}

TEST(SymmetryEquivalence, SingleFDN3Theorem10Mode) {
  processes::SingleFDConsensusSpec spec;
  spec.processCount = 3;
  spec.fdResilience = 0;
  spec.policy = services::DummyPolicy::PreferDummy;
  auto sys = processes::buildSingleFDRotatingConsensusSystem(spec);
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

TEST(SymmetryEquivalence, FloodingWitnessLiftsToConcreteExecution) {
  auto sys = floodingFixture(3, 0);
  const auto on = runWith(*sys, 1, SymmetryMode::On);
  ASSERT_TRUE(on.symmetryReduced) << on.symmetryNote;
  expectWitnessIsConcrete(*sys, on);
}

TEST(SymmetryEquivalence, AutoEnablesForDeclaredSymmetryOnly) {
  {
    auto sys = relayFixture(3, 0);
    const auto r = runWith(*sys, 1, SymmetryMode::Auto);
    EXPECT_TRUE(r.symmetryReduced);
  }
  {
    processes::TOBConsensusSpec spec;
    spec.processCount = 3;
    spec.serviceResilience = 0;
    spec.policy = services::DummyPolicy::PreferDummy;
    auto sys = processes::buildTOBConsensusSystem(spec);
    const auto r = runWith(*sys, 1, SymmetryMode::Auto);
    EXPECT_FALSE(r.symmetryReduced);
  }
}

TEST(SymmetryEquivalence, OffIsTheLibraryDefault) {
  // Library callers who never touch cfg.symmetry must keep the legacy
  // engine bit-for-bit (CLI opts into Auto explicitly).
  AdversaryConfig cfg;
  EXPECT_EQ(cfg.symmetry, SymmetryMode::Off);
}

}  // namespace
}  // namespace boosting::analysis
