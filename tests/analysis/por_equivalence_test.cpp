// Differential battery for ample-set partial-order reduction: the
// adversary pipeline must reach the SAME verdict, the same initialization
// valences and a genuinely replayable witness across the full 2x2 matrix
// {symmetry off/on} x {por off/on}, on every n=3/4 fixture -- including
// the candidates where one reduction applies and the other must REFUSE
// (bridge declines symmetry but accepts POR; TOB declines both). The
// soundness argument (stubborn-set preservation of stable-predicate
// reachability plus the BFS cycle proviso, DESIGN.md "Partial-order
// reduction") is executable here.
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

std::unique_ptr<ioa::System> bridgeFixture(int n) {
  processes::BridgeSystemSpec spec;
  spec.processCount = n;
  spec.policy = services::DummyPolicy::PreferDummy;
  return processes::buildBridgeConsensusSystem(spec);
}

AdversaryReport runWith(const ioa::System& sys, int claim, SymmetryMode sym,
                        PorMode por, bool exemptFailureAware = false) {
  AdversaryConfig cfg;
  cfg.claimedFailures = claim;
  cfg.exemptFailureAware = exemptFailureAware;
  cfg.symmetry = sym;
  cfg.por = por;
  return analyzeConsensusCandidate(sys, cfg);
}

// Valence is reachability of the stable decide predicates, which stubborn
// sets preserve, so the per-initialization outcomes must match exactly
// across every cell of the matrix (node ids live in different graphs and
// are not compared).
void expectSameProofShape(const AdversaryReport& base,
                          const AdversaryReport& reduced,
                          const char* label) {
  EXPECT_EQ(base.verdict, reduced.verdict)
      << label << "\nbase: " << base.summary()
      << "\nreduced: " << reduced.summary();
  ASSERT_EQ(base.initializations.size(), reduced.initializations.size())
      << label;
  for (std::size_t i = 0; i < base.initializations.size(); ++i) {
    EXPECT_EQ(base.initializations[i].onesPrefix,
              reduced.initializations[i].onesPrefix)
        << label;
    EXPECT_EQ(base.initializations[i].valence,
              reduced.initializations[i].valence)
        << label << ": initialization "
        << base.initializations[i].onesPrefix;
  }
  EXPECT_EQ(base.bivalentInit.has_value(), reduced.bivalentInit.has_value())
      << label;
  if (base.bivalentInit && reduced.bivalentInit) {
    EXPECT_EQ(base.bivalentInit->onesPrefix, reduced.bivalentInit->onesPrefix)
        << label;
  }
  EXPECT_EQ(base.hook.has_value(), reduced.hook.has_value()) << label;
  EXPECT_EQ(base.fairCycle, reduced.fairCycle) << label;
}

// Every reduced edge is a genuine transition, so the witness must replay
// as a real execution of the UNreduced system from its initial state --
// identity lifting, no commuted-step re-insertion needed (DESIGN.md).
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
          << "correct process decided in the reduced witness: " << a.str();
    }
  }
}

// The full four-cell matrix on one fixture: full exploration is the
// ground truth; each reduction alone and the stack must agree with it.
void runMatrix(const ioa::System& sys, int claim,
               bool expectPor, bool expectSym) {
  const auto full = runWith(sys, claim, SymmetryMode::Off, PorMode::Off);
  const auto symOnly = runWith(sys, claim, SymmetryMode::On, PorMode::Off);
  const auto porOnly = runWith(sys, claim, SymmetryMode::Off, PorMode::On);
  const auto stacked = runWith(sys, claim, SymmetryMode::On, PorMode::On);

  EXPECT_FALSE(full.porReduced);
  EXPECT_EQ(porOnly.porReduced, expectPor) << porOnly.porNote;
  EXPECT_EQ(symOnly.symmetryReduced, expectSym) << symOnly.symmetryNote;
  EXPECT_EQ(stacked.porReduced, expectPor) << stacked.porNote;
  EXPECT_EQ(stacked.symmetryReduced, expectSym) << stacked.symmetryNote;

  expectSameProofShape(full, symOnly, "sym-only vs full");
  expectSameProofShape(full, porOnly, "por-only vs full");
  expectSameProofShape(full, stacked, "sym+por vs full");

  if (expectPor) {
    EXPECT_LE(porOnly.statesExplored, full.statesExplored);
    EXPECT_GT(porOnly.porTasksSkipped, 0u);
  } else {
    // A declined reduction must reproduce the legacy graph bit-for-bit.
    EXPECT_EQ(porOnly.statesExplored, full.statesExplored);
    EXPECT_FALSE(porOnly.porNote.empty());
  }
  if (expectPor && expectSym) {
    EXPECT_LE(stacked.statesExplored, symOnly.statesExplored);
  }

  for (const AdversaryReport* r : {&full, &symOnly, &porOnly, &stacked}) {
    if (r->verdict == AdversaryReport::Verdict::TerminationViolation) {
      expectWitnessIsConcrete(sys, *r);
    }
  }
}

TEST(PorEquivalence, RelayN3FZeroMatrix) {
  auto sys = relayFixture(3, 0);
  runMatrix(*sys, 1, /*expectPor=*/true, /*expectSym=*/true);
}

TEST(PorEquivalence, RelayN3FOneMatrix) {
  // The genuinely-boosting claim (f = 1 -> 2): the heart of Theorem 2.
  auto sys = relayFixture(3, 1);
  runMatrix(*sys, 2, /*expectPor=*/true, /*expectSym=*/true);
}

TEST(PorEquivalence, RelayN4FOneMatrix) {
  auto sys = relayFixture(4, 1);
  runMatrix(*sys, 2, /*expectPor=*/true, /*expectSym=*/true);
}

TEST(PorEquivalence, FloodingN3Matrix) {
  // Channels respond to the RECIPIENT, not the invoker, so the policy
  // must keep the conservative whole-response footprint; the reduction
  // still engages and must stay sound. Flooding declares no process
  // symmetry, so the symmetry cells reproduce the unreduced graphs.
  auto sys = floodingFixture(3, 0);
  runMatrix(*sys, 1, /*expectPor=*/true, /*expectSym=*/false);
}

TEST(PorEquivalence, BridgeN3PorWithoutSymmetry) {
  // The asymmetric bridge topology declines the symmetry quotient but
  // its components all declare task structures: POR alone must engage
  // and agree with the full graph.
  auto sys = bridgeFixture(3);
  runMatrix(*sys, 1, /*expectPor=*/true, /*expectSym=*/false);
}

TEST(PorEquivalence, TOBN3DeclinesWithoutTaskStructure) {
  processes::TOBConsensusSpec spec;
  spec.processCount = 3;
  spec.serviceResilience = 0;
  spec.policy = services::DummyPolicy::PreferDummy;
  auto sys = processes::buildTOBConsensusSystem(spec);
  const auto off = runWith(*sys, 1, SymmetryMode::Off, PorMode::Off);
  const auto on = runWith(*sys, 1, SymmetryMode::Off, PorMode::On);
  // No declared task structure: On must fall back to full expansion, say
  // why, and reproduce the legacy run bit-for-bit.
  EXPECT_FALSE(on.porReduced);
  EXPECT_FALSE(on.porNote.empty());
  expectSameProofShape(off, on, "por-on (declined) vs full");
  EXPECT_EQ(off.statesExplored, on.statesExplored);
}

TEST(PorEquivalence, SingleFDN3Theorem10ModeDeclines) {
  processes::SingleFDConsensusSpec spec;
  spec.processCount = 3;
  spec.fdResilience = 0;
  spec.policy = services::DummyPolicy::PreferDummy;
  auto sys = processes::buildSingleFDRotatingConsensusSystem(spec);
  const auto off = runWith(*sys, 1, SymmetryMode::Off, PorMode::Off,
                           /*exemptFailureAware=*/true);
  const auto on = runWith(*sys, 1, SymmetryMode::Off, PorMode::On,
                          /*exemptFailureAware=*/true);
  EXPECT_FALSE(on.porReduced);
  expectSameProofShape(off, on, "por-on (declined) vs full");
  EXPECT_EQ(off.statesExplored, on.statesExplored);
}

TEST(PorEquivalence, AutoEnablesForDeclaredTaskStructureOnly) {
  {
    auto sys = relayFixture(3, 0);
    const auto r = runWith(*sys, 1, SymmetryMode::Off, PorMode::Auto);
    EXPECT_TRUE(r.porReduced) << r.porNote;
  }
  {
    processes::TOBConsensusSpec spec;
    spec.processCount = 3;
    spec.serviceResilience = 0;
    spec.policy = services::DummyPolicy::PreferDummy;
    auto sys = processes::buildTOBConsensusSystem(spec);
    const auto r = runWith(*sys, 1, SymmetryMode::Off, PorMode::Auto);
    EXPECT_FALSE(r.porReduced);
  }
}

TEST(PorEquivalence, OffIsTheLibraryDefault) {
  // Library callers who never touch cfg.por must keep the legacy engine
  // bit-for-bit (CLI opts into Auto explicitly).
  AdversaryConfig cfg;
  EXPECT_EQ(cfg.por, PorMode::Off);
  auto sys = relayFixture(3, 0);
  StateGraph g(*sys);
  EXPECT_FALSE(g.porActive());
}

}  // namespace
}  // namespace boosting::analysis
