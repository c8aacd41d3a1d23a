// The end-to-end impossibility engine (Theorems 2, 9, 10): for every
// candidate that claims to boost resilience, the adversary produces a
// concrete counterexample -- in these instances, always the theorem-
// predicted termination violation under f+1 failures (or failure-free).
#include "analysis/adversary.h"

#include <gtest/gtest.h>

#include "analysis/bivalence.h"
#include "processes/process.h"
#include "processes/relay_consensus.h"
#include "processes/rotating_consensus.h"
#include "processes/tob_consensus.h"

namespace boosting::analysis {
namespace {

using processes::buildRelayConsensusSystem;
using processes::buildTOBConsensusSystem;
using processes::RelaySystemSpec;

std::unique_ptr<ioa::System> adversarialRelay(int n, int f,
                                              bool withRegister = false) {
  RelaySystemSpec spec;
  spec.processCount = n;
  spec.objectResilience = f;
  spec.addScratchRegister = withRegister;
  spec.policy = services::DummyPolicy::PreferDummy;  // the adversary's build
  return buildRelayConsensusSystem(spec);
}

// Step 1's node-local check on hand-set decisions. The initialization with
// one leading one gives inputs P0 = 1, P1 = 0, P2 = 0.
ioa::SystemState decided(const ioa::System& sys,
                         std::initializer_list<std::pair<int, int>> ds) {
  ioa::SystemState s = canonicalInitialization(sys, 1);
  for (const auto& [i, v] : ds) {
    processes::ProcessBase::stateOf(s.part(sys.slotForProcess(i))).decision =
        util::Value(v);
  }
  return s;
}

TEST(Adversary, NodeSafetyNarrativesArePinned) {
  auto sys = adversarialRelay(3, 1);
  EXPECT_EQ(nodeSafetyViolation(*sys, decided(*sys, {})), std::nullopt);
  EXPECT_EQ(nodeSafetyViolation(*sys, decided(*sys, {{0, 0}, {2, 0}})),
            std::nullopt);
  EXPECT_EQ(nodeSafetyViolation(*sys, decided(*sys, {{1, 2}})),
            "validity violated: P1 decided 2, proposed by no process");
  EXPECT_EQ(nodeSafetyViolation(*sys, decided(*sys, {{0, 1}, {2, 0}})),
            "agreement violated: P0 decided 1, P2 decided 0");
  // Process order decides which violation is reported: P1's disagreement
  // comes before P2's invalid decision.
  EXPECT_EQ(
      nodeSafetyViolation(*sys, decided(*sys, {{0, 1}, {1, 0}, {2, 5}})),
      "agreement violated: P0 decided 1, P1 decided 0");
  EXPECT_EQ(nodeSafetyViolation(*sys, decided(*sys, {{0, 7}, {1, 0}})),
            "validity violated: P0 decided 7, proposed by no process");
}

TEST(Adversary, TheoremTwoOnTwoProcessRelay) {
  // f = 0 object, claim: 1-resilient consensus for 2 processes. This is
  // exactly the FLP instance of Theorem 2 (f = 0 generalizes [8]).
  auto sys = adversarialRelay(2, 0);
  AdversaryConfig cfg;
  cfg.claimedFailures = 1;
  auto report = analyzeConsensusCandidate(*sys, cfg);
  EXPECT_EQ(report.verdict, AdversaryReport::Verdict::TerminationViolation)
      << report.summary();
  EXPECT_TRUE(report.bivalentInit.has_value());
  EXPECT_TRUE(report.hook.has_value());
  EXPECT_LE(report.witnessFailures.size(), 1u);
  EXPECT_FALSE(report.witness.empty());
}

TEST(Adversary, TheoremTwoOnThreeProcessRelayFZero) {
  auto sys = adversarialRelay(3, 0);
  AdversaryConfig cfg;
  cfg.claimedFailures = 1;
  auto report = analyzeConsensusCandidate(*sys, cfg);
  EXPECT_EQ(report.verdict, AdversaryReport::Verdict::TerminationViolation)
      << report.summary();
}

TEST(Adversary, TheoremTwoOnThreeProcessRelayFOne) {
  // The genuinely-boosting case f = 1 -> claim 2: beyond FLP's reach, the
  // heart of Theorem 2.
  auto sys = adversarialRelay(3, 1);
  AdversaryConfig cfg;
  cfg.claimedFailures = 2;
  auto report = analyzeConsensusCandidate(*sys, cfg);
  EXPECT_EQ(report.verdict, AdversaryReport::Verdict::TerminationViolation)
      << report.summary();
  EXPECT_EQ(report.witnessFailures.size(), 2u);  // J has f+1 = 2 processes
}

TEST(Adversary, TheoremTwoScalesAcrossNandF) {
  // The genuinely-boosting claims at larger sizes: every (n, f) pair is
  // refuted with exactly f+1 failures.
  for (auto [n, f] : {std::pair{4, 0}, std::pair{4, 2}, std::pair{5, 3}}) {
    auto sys = adversarialRelay(n, f);
    AdversaryConfig cfg;
    cfg.claimedFailures = f + 1;
    auto report = analyzeConsensusCandidate(*sys, cfg);
    EXPECT_EQ(report.verdict, AdversaryReport::Verdict::TerminationViolation)
        << "n=" << n << " f=" << f << ": " << report.summary();
    EXPECT_EQ(static_cast<int>(report.witnessFailures.size()), f + 1);
  }
}

TEST(Adversary, WiderBridgeTopology) {
  processes::BridgeSystemSpec spec;
  spec.processCount = 4;
  spec.bridgeEndpoint = 1;
  spec.policy = services::DummyPolicy::PreferDummy;
  auto sys = processes::buildBridgeConsensusSystem(spec);
  AdversaryConfig cfg;
  cfg.claimedFailures = 1;
  auto report = analyzeConsensusCandidate(*sys, cfg);
  EXPECT_EQ(report.verdict, AdversaryReport::Verdict::TerminationViolation)
      << report.summary();
}

TEST(Adversary, WitnessContainsNoDecisionByCorrectProcess) {
  auto sys = adversarialRelay(2, 0);
  AdversaryConfig cfg;
  cfg.claimedFailures = 1;
  auto report = analyzeConsensusCandidate(*sys, cfg);
  ASSERT_EQ(report.verdict, AdversaryReport::Verdict::TerminationViolation);
  for (const ioa::Action& a : report.witness.actions()) {
    if (a.kind == ioa::ActionKind::EnvDecide) {
      EXPECT_TRUE(report.witnessFailures.count(a.endpoint))
          << "correct process decided in the witness: " << a.str();
    }
  }
}

TEST(Adversary, WitnessReplaysOnFreshSystem) {
  // The counterexample is a genuine execution: replaying its actions from
  // the initial state must not throw and must reproduce the failure set.
  auto sys = adversarialRelay(2, 0);
  AdversaryConfig cfg;
  cfg.claimedFailures = 1;
  auto report = analyzeConsensusCandidate(*sys, cfg);
  ASSERT_EQ(report.verdict, AdversaryReport::Verdict::TerminationViolation);
  ioa::SystemState s = sys->initialState();
  for (const ioa::Action& a : report.witness.actions()) {
    ASSERT_NO_THROW(sys->applyInPlace(s, a)) << a.str();
  }
  EXPECT_EQ(report.witness.failedEndpoints(), report.witnessFailures);
}

TEST(Adversary, RegisterPresenceDoesNotRescueTheClaim) {
  // Theorem 2 allows reliable registers alongside the f-resilient objects.
  auto sys = adversarialRelay(2, 0, /*withRegister=*/true);
  AdversaryConfig cfg;
  cfg.claimedFailures = 1;
  auto report = analyzeConsensusCandidate(*sys, cfg);
  EXPECT_EQ(report.verdict, AdversaryReport::Verdict::TerminationViolation)
      << report.summary();
}

TEST(Adversary, ArbitraryConnectionPatternsCovered) {
  // The bridge candidate: two services with different endpoint sets.
  processes::BridgeSystemSpec spec;
  spec.policy = services::DummyPolicy::PreferDummy;
  auto sys = processes::buildBridgeConsensusSystem(spec);
  AdversaryConfig cfg;
  cfg.claimedFailures = 1;
  auto report = analyzeConsensusCandidate(*sys, cfg);
  EXPECT_EQ(report.verdict, AdversaryReport::Verdict::TerminationViolation)
      << report.summary();
}

TEST(Adversary, TheoremNineOnTOBCandidate) {
  // Failure-oblivious service (totally ordered broadcast): Theorem 9.
  for (int n : {2, 3}) {
    processes::TOBConsensusSpec spec;
    spec.processCount = n;
    spec.serviceResilience = 0;
    spec.policy = services::DummyPolicy::PreferDummy;
    auto sys = buildTOBConsensusSystem(spec);
    AdversaryConfig cfg;
    cfg.claimedFailures = 1;
    auto report = analyzeConsensusCandidate(*sys, cfg);
    EXPECT_EQ(report.verdict, AdversaryReport::Verdict::TerminationViolation)
        << "n=" << n << ": " << report.summary();
    EXPECT_TRUE(report.hook.has_value());
  }
}

TEST(Adversary, HookClassificationAccompaniesTheVerdict) {
  auto sys = adversarialRelay(2, 0);
  AdversaryConfig cfg;
  cfg.claimedFailures = 1;
  auto report = analyzeConsensusCandidate(*sys, cfg);
  ASSERT_TRUE(report.hook.has_value());
  EXPECT_NE(report.classification.kind,
            HookClassification::Kind::Unclassified);
  EXPECT_NE(report.classification.kind, HookClassification::Kind::Commute);
}

TEST(Adversary, FailedSetSizeMatchesClaim) {
  // J always has exactly f+1 elements in the hook-based construction.
  auto sys = adversarialRelay(3, 1);
  AdversaryConfig cfg;
  cfg.claimedFailures = 2;
  auto report = analyzeConsensusCandidate(*sys, cfg);
  ASSERT_EQ(report.verdict, AdversaryReport::Verdict::TerminationViolation);
  if (report.hook.has_value() && !report.fairCycle) {
    EXPECT_EQ(static_cast<int>(report.witnessFailures.size()),
              cfg.claimedFailures);
  }
}

TEST(Adversary, SingleFDRefutedWithFPlusOneFailures) {
  // No initialization of the single-detector candidate is bivalent, so the
  // Lemma-4 branch refutes it. At f = 1 the detector keeps answering when
  // only the differing process fails; failing f+1 processes silences it.
  processes::SingleFDConsensusSpec spec;
  spec.processCount = 3;
  spec.fdResilience = 1;
  spec.policy = services::DummyPolicy::PreferDummy;
  auto sys = processes::buildSingleFDRotatingConsensusSystem(spec);
  AdversaryConfig cfg;
  cfg.claimedFailures = 2;
  cfg.exemptFailureAware = true;
  auto report = analyzeConsensusCandidate(*sys, cfg);
  ASSERT_EQ(report.verdict, AdversaryReport::Verdict::TerminationViolation)
      << report.summary();
  EXPECT_FALSE(report.bivalentInit.has_value());
  EXPECT_EQ(report.witnessFailures, (std::set<int>{0, 1}));
  EXPECT_NE(report.narrative.find("P0 together with P1"), std::string::npos)
      << report.narrative;
  ioa::SystemState s = sys->initialState();
  for (const ioa::Action& a : report.witness.actions()) {
    ASSERT_NO_THROW(sys->applyInPlace(s, a)) << a.str();
    if (a.kind == ioa::ActionKind::EnvDecide) {
      EXPECT_TRUE(report.witnessFailures.count(a.endpoint))
          << "correct process decided in the witness: " << a.str();
    }
  }
  EXPECT_EQ(report.witness.failedEndpoints(), report.witnessFailures);
}

TEST(Adversary, RejectsOutOfRangeClaims) {
  auto sys = adversarialRelay(2, 0);
  AdversaryConfig cfg;
  cfg.claimedFailures = 0;  // f+1 must be >= 1
  EXPECT_THROW(analyzeConsensusCandidate(*sys, cfg), std::logic_error);
  cfg.claimedFailures = 2;  // = n: the theorems need f < n-1
  EXPECT_THROW(analyzeConsensusCandidate(*sys, cfg), std::logic_error);
}

TEST(Adversary, SummaryIsHumanReadable) {
  auto sys = adversarialRelay(2, 0);
  AdversaryConfig cfg;
  cfg.claimedFailures = 1;
  auto report = analyzeConsensusCandidate(*sys, cfg);
  const std::string s = report.summary();
  EXPECT_NE(s.find("TERMINATION"), std::string::npos);
  EXPECT_NE(s.find("failed"), std::string::npos);
}

TEST(Adversary, StatesExploredReported) {
  auto sys = adversarialRelay(2, 0);
  AdversaryConfig cfg;
  cfg.claimedFailures = 1;
  auto report = analyzeConsensusCandidate(*sys, cfg);
  EXPECT_GT(report.statesExplored, 10u);
}

}  // namespace
}  // namespace boosting::analysis
