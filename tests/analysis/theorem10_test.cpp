// Theorem 10: systems containing failure-AWARE services connected to all
// processes cannot boost resilience either -- and the all-process
// connection assumption is necessary (the pairwise construction of
// Section 6.3 does boost, see rotating_consensus_test.cpp).
#include <gtest/gtest.h>

#include "analysis/adversary.h"
#include "analysis/bivalence.h"
#include "processes/rotating_consensus.h"
#include "sim/properties.h"
#include "sim/runner.h"

namespace boosting::analysis {
namespace {

using processes::buildSingleFDRotatingConsensusSystem;
using processes::SingleFDConsensusSpec;

std::unique_ptr<ioa::System> doomed(int n, int f,
                                    services::DummyPolicy policy =
                                        services::DummyPolicy::PreferDummy) {
  SingleFDConsensusSpec spec;
  spec.processCount = n;
  spec.fdResilience = f;
  spec.policy = policy;
  return buildSingleFDRotatingConsensusSystem(spec);
}

TEST(Theorem10, CandidateSolvesFResilientConsensus) {
  // Within the detector's resilience the system is a correct consensus
  // implementation: the claim being refuted is only the f+1 level.
  auto sys = doomed(3, 1, services::DummyPolicy::PreferDummy);
  for (unsigned mask = 0; mask < 8; ++mask) {
    for (int failed = -1; failed < 3; ++failed) {  // at most f = 1 failure
      sim::RunConfig cfg;
      cfg.inits = sim::binaryInits(3, mask);
      if (failed >= 0) cfg.failures = {{3, failed}};
      cfg.maxSteps = 60000;
      auto r = sim::run(*sys, cfg);
      ASSERT_TRUE(r.allDecided()) << "mask=" << mask << " failed=" << failed;
      auto verdict = sim::checkConsensus(r);
      EXPECT_TRUE(verdict) << verdict.detail;
    }
  }
}

TEST(Theorem10, AdversaryRefutesBoostedClaimTwoProcesses) {
  auto sys = doomed(2, 0);
  AdversaryConfig cfg;
  cfg.claimedFailures = 1;
  cfg.exemptFailureAware = true;  // Theorem-10 similarity relations
  auto report = analyzeConsensusCandidate(*sys, cfg);
  EXPECT_EQ(report.verdict, AdversaryReport::Verdict::TerminationViolation)
      << report.summary();
  EXPECT_LE(report.witnessFailures.size(), 1u);
}

TEST(Theorem10, AdversaryRefutesBoostedClaimThreeProcesses) {
  auto sys = doomed(3, 0);
  AdversaryConfig cfg;
  cfg.claimedFailures = 1;
  cfg.exemptFailureAware = true;
  auto report = analyzeConsensusCandidate(*sys, cfg);
  EXPECT_EQ(report.verdict, AdversaryReport::Verdict::TerminationViolation)
      << report.summary();
}

TEST(Theorem10, SilencedDetectorStarvesWaiters) {
  // Direct construction of the gamma scenario: fail the round-0
  // coordinator; with the single f = 0 detector silenced, the waiter can
  // neither read EST[0] nor suspect P0 -- a certified fair livelock.
  auto sys = doomed(2, 0);
  sim::RunConfig cfg;
  cfg.inits = sim::binaryInits(2, 0b01);
  cfg.failures = {{0, 0}};
  cfg.detectLivelock = true;
  auto r = sim::run(*sys, cfg);
  EXPECT_TRUE(r.livelocked());
  EXPECT_TRUE(r.decisions.empty());
}

TEST(Theorem10, PairwiseVersionSurvivesTheSameScenario) {
  // The necessity of the all-process-connection assumption: the SAME
  // protocol over pairwise 1-resilient detectors decides.
  processes::RotatingConsensusSpec spec;
  spec.processCount = 2;
  auto sys = processes::buildRotatingConsensusSystem(spec);
  sim::RunConfig cfg;
  cfg.inits = sim::binaryInits(2, 0b01);
  cfg.failures = {{0, 0}};
  cfg.maxSteps = 60000;
  auto r = sim::run(*sys, cfg);
  EXPECT_TRUE(r.allDecided());
  EXPECT_TRUE(sim::checkConsensus(r));
}

TEST(Theorem10, FailureAwareSimilarityIgnoresDetectorState) {
  // The Section-6.3 variant of j-similarity: general services may differ
  // arbitrarily.
  auto sys = doomed(2, 0);
  ioa::SystemState a = canonicalInitialization(*sys, 1);
  ioa::SystemState b = canonicalInitialization(*sys, 1);
  // Mutate only the detector's state in b.
  auto& fd = services::CanonicalGeneralService::stateOf(
      b.part(sys->slotForService(650)));
  fd.respBuf.push(0, util::sym("suspect", util::Value::emptySet()));
  SimilarityOptions exempt;
  exempt.exemptFailureAware = true;
  EXPECT_TRUE(jSimilar(*sys, a, b, 0, exempt));
  EXPECT_TRUE(jSimilar(*sys, a, b, 1, exempt));
  EXPECT_TRUE(kSimilar(*sys, a, b, 500, exempt));
  // Without the exemption the difference (in endpoint 0's detector buffer)
  // is visible to every j except j = 0, whose buffers j-similarity ignores.
  EXPECT_FALSE(jSimilar(*sys, a, b, 1));
  EXPECT_TRUE(jSimilar(*sys, a, b, 0));
}

TEST(Theorem10, RefutationRobustWithoutExemption) {
  // Even with the plain (Theorem 2/9) similarity relations -- which may
  // fail to classify a hook touching the failure-aware detector -- the
  // adversary's fallback failure set still certifies the violation.
  auto sys = doomed(2, 0);
  AdversaryConfig cfg;
  cfg.claimedFailures = 1;
  cfg.exemptFailureAware = false;
  auto report = analyzeConsensusCandidate(*sys, cfg);
  EXPECT_EQ(report.verdict, AdversaryReport::Verdict::TerminationViolation)
      << report.summary();
}

TEST(Theorem10, BuilderValidatesIdOrdering) {
  SingleFDConsensusSpec spec;
  spec.fdId = 100;
  spec.estBaseId = 500;
  EXPECT_THROW(buildSingleFDRotatingConsensusSystem(spec), std::logic_error);
  spec.processCount = 1;
  spec.fdId = 650;
  EXPECT_THROW(buildSingleFDRotatingConsensusSystem(spec), std::logic_error);
}

}  // namespace
}  // namespace boosting::analysis
