// Composition all the way down: the Section-4 set-consensus booster
// running over IMPLEMENTED group services -- each group's consensus object
// is a wrapped two-process test&set construction (Herlihy's
// consensus-number-2 building block), remapped onto its group's endpoints.
//
//   outer:  4 relay processes, groups {0,1} and {2,3}
//   group service g: SystemAsService(TAS-consensus system, offset = 2g)
//
// The composed system solves wait-free 2-set consensus: at most two
// distinct decisions, validity, and termination with up to 3 of 4
// processes failed -- resilience boosted above the 1-resilience of every
// primitive inside, exactly as Section 4 promises, with no canonical
// consensus object anywhere in the stack.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "compose/system_as_service.h"
#include "processes/relay_consensus.h"
#include "processes/tas_consensus.h"
#include "sim/properties.h"
#include "sim/runner.h"

namespace boosting::compose {
namespace {

using sim::RunConfig;
using util::Value;

std::unique_ptr<ioa::System> layeredBooster() {
  auto outer = std::make_unique<ioa::System>();
  // Group of endpoint i is i / 2; its service id is 1000 + group.
  for (int i = 0; i < 4; ++i) {
    outer->addProcess(std::make_shared<processes::RelayConsensusProcess>(
        i, 1000 + i / 2));
  }
  for (int g = 0; g < 2; ++g) {
    processes::TASConsensusSpec spec;
    spec.policy = services::DummyPolicy::PreferDummy;  // adversarial build
    auto inner = std::shared_ptr<const ioa::System>(
        processes::buildTASConsensusSystem(spec));
    auto wrapped = std::make_shared<SystemAsService>(
        inner, 1000 + g, /*resilience=*/1, /*failureAware=*/false,
        /*endpointOffset=*/2 * g);
    outer->addService(wrapped, wrapped->meta());
  }
  return outer;
}

TEST(LayeredBooster, MetaReflectsRemappedEndpoints) {
  auto sys = layeredBooster();
  EXPECT_EQ(sys->serviceMeta(1000).endpoints, (std::vector<int>{0, 1}));
  EXPECT_EQ(sys->serviceMeta(1001).endpoints, (std::vector<int>{2, 3}));
}

TEST(LayeredBooster, FailRoutesOnlyToTheOwningGroup) {
  auto sys = layeredBooster();
  // fail_3 reaches P3 and the second wrapper only.
  std::vector<std::size_t> participants;
  sys->forEachParticipant(ioa::Action::fail(3), [&](std::size_t slot) {
    participants.push_back(slot);
  });
  ASSERT_EQ(participants.size(), 2u);
  EXPECT_EQ(participants[1], sys->slotForService(1001));
}

TEST(LayeredBooster, SolvesTwoSetConsensusFailureFree) {
  auto sys = layeredBooster();
  RunConfig cfg;
  for (int i = 0; i < 4; ++i) cfg.inits.emplace_back(i, Value(i));
  cfg.maxSteps = 200000;
  auto r = sim::run(*sys, cfg);
  ASSERT_TRUE(r.allDecided());
  auto kset = sim::checkKSetAgreement(r, 2);
  EXPECT_TRUE(kset) << kset.detail;
  auto valid = sim::checkValidity(r);
  EXPECT_TRUE(valid) << valid.detail;
  // Group members agree with each other (each group ran consensus).
  EXPECT_EQ(r.decisions.at(0), r.decisions.at(1));
  EXPECT_EQ(r.decisions.at(2), r.decisions.at(3));
}

TEST(LayeredBooster, WaitFreeUnderThreeFailures) {
  for (int survivor = 0; survivor < 4; ++survivor) {
    auto sys = layeredBooster();
    RunConfig cfg;
    for (int i = 0; i < 4; ++i) cfg.inits.emplace_back(i, Value(i));
    std::size_t k = 0;
    for (int i = 0; i < 4; ++i) {
      if (i != survivor) cfg.failures.emplace_back(3 * ++k, i);
    }
    cfg.maxSteps = 200000;
    auto r = sim::run(*sys, cfg);
    ASSERT_TRUE(r.allDecided()) << "survivor " << survivor;
    EXPECT_TRUE(sim::checkKSetAgreement(r, 2));
    EXPECT_TRUE(sim::checkValidity(r));
    EXPECT_EQ(r.decisions.count(survivor), 1u);
  }
}

TEST(LayeredBooster, RandomSchedulesSweep) {
  auto sys = layeredBooster();
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    RunConfig cfg;
    for (int i = 0; i < 4; ++i) {
      cfg.inits.emplace_back(i, Value(static_cast<int>((seed + i) % 3)));
    }
    cfg.scheduler = RunConfig::Sched::Random;
    cfg.seed = seed;
    if (seed % 2 == 1) {
      cfg.failures.emplace_back(seed % 9, static_cast<int>(seed % 4));
    }
    cfg.maxSteps = 200000;
    auto r = sim::run(*sys, cfg);
    ASSERT_TRUE(r.allDecided()) << "seed " << seed;
    EXPECT_TRUE(sim::checkKSetAgreement(r, 2)) << "seed " << seed;
    EXPECT_TRUE(sim::checkValidity(r)) << "seed " << seed;
  }
}

}  // namespace
}  // namespace boosting::compose
