// Failure detectors as general services (Section 6.2): the perfect
// detector P reports exactly the failed endpoints; the eventually perfect
// detector <>P may report arbitrarily before stabilizing and exactly after.
#include <gtest/gtest.h>

#include "services/canonical_general.h"
#include "types/fd_types.h"

namespace boosting::services {
namespace {

using ioa::Action;
using ioa::TaskId;
using util::sym;
using util::Value;

CanonicalGeneralService makeP(std::vector<int> ends = {0, 1, 2},
                              int f = 2, bool coalesce = false) {
  CanonicalGeneralService::Options opts;
  opts.coalesceResponses = coalesce;
  return CanonicalGeneralService(types::perfectFailureDetectorType(), 11,
                                 std::move(ends), f, opts);
}

TEST(PerfectFD, OneGlobalTaskPerEndpoint) {
  auto fd = makeP();
  int computes = 0;
  for (const auto& t : fd.tasks()) {
    if (t.owner == ioa::TaskOwner::ServiceCompute) ++computes;
  }
  EXPECT_EQ(computes, 3);  // the -1 sentinel resolves to |J|
  EXPECT_TRUE(fd.meta().failureAware);
}

TEST(PerfectFD, ReportsEmptySetInitially) {
  auto fd = makeP();
  auto s = fd.initialState();
  fd.apply(*s, *fd.enabledAction(*s, TaskId::serviceCompute(11, 0)));
  auto r = fd.enabledAction(*s, TaskId::serviceOutput(11, 0));
  ASSERT_TRUE(r);
  EXPECT_EQ(r->payload, sym("suspect", Value::emptySet()));
}

TEST(PerfectFD, ReportsExactlyTheFailedSet) {
  auto fd = makeP();
  auto s = fd.initialState();
  fd.apply(*s, Action::fail(1));
  // Task g targets endpoints[g]; endpoint 2 is served by task 2.
  fd.apply(*s, *fd.enabledAction(*s, TaskId::serviceCompute(11, 2)));
  auto r = fd.enabledAction(*s, TaskId::serviceOutput(11, 2));
  ASSERT_TRUE(r);
  EXPECT_EQ(types::suspectSet(r->payload), Value::set({Value(1)}));
}

TEST(PerfectFD, AccuracyNeverSuspectsAlive) {
  auto fd = makeP();
  auto s = fd.initialState();
  fd.apply(*s, Action::fail(0));
  fd.apply(*s, Action::fail(2));
  fd.apply(*s, *fd.enabledAction(*s, TaskId::serviceCompute(11, 1)));
  auto r = fd.enabledAction(*s, TaskId::serviceOutput(11, 1));
  ASSERT_TRUE(r);
  Value suspects = types::suspectSet(r->payload);
  EXPECT_FALSE(suspects.setContains(Value(1)));  // 1 is alive
  EXPECT_TRUE(suspects.setContains(Value(0)));
  EXPECT_TRUE(suspects.setContains(Value(2)));
}

TEST(PerfectFD, HasNoInvocations) {
  auto fd = makeP();
  auto s = fd.initialState();
  fd.apply(*s, Action::invoke(0, 11, sym("query")));
  EXPECT_THROW(
      fd.apply(*s, *fd.enabledAction(*s, TaskId::servicePerform(11, 0))),
      std::logic_error);
}

TEST(PerfectFD, CoalescingBoundsBufferGrowth) {
  auto fd = makeP({0, 1}, 1, /*coalesce=*/true);
  auto s = fd.initialState();
  for (int k = 0; k < 10; ++k) {
    fd.apply(*s, *fd.enabledAction(*s, TaskId::serviceCompute(11, 0)));
  }
  const auto& st = CanonicalGeneralService::stateOf(*s);
  EXPECT_EQ(st.respBuf[0].size(), 1u);  // identical reports coalesced
}

TEST(PerfectFD, WithoutCoalescingBufferGrows) {
  auto fd = makeP({0, 1}, 1, /*coalesce=*/false);
  auto s = fd.initialState();
  for (int k = 0; k < 10; ++k) {
    fd.apply(*s, *fd.enabledAction(*s, TaskId::serviceCompute(11, 0)));
  }
  EXPECT_EQ(CanonicalGeneralService::stateOf(*s).respBuf[0].size(), 10u);
}

TEST(PerfectFD, SilencedWhenResilienceExceeded) {
  CanonicalGeneralService::Options opts;
  opts.policy = DummyPolicy::PreferDummy;
  CanonicalGeneralService fd(types::perfectFailureDetectorType(), 11, {0, 1},
                             1, opts);
  auto s = fd.initialState();
  fd.apply(*s, Action::fail(0));
  fd.apply(*s, Action::fail(1));  // both endpoints: |failed| > f = 1
  auto c = fd.enabledAction(*s, TaskId::serviceCompute(11, 0));
  ASSERT_TRUE(c);
  EXPECT_EQ(c->kind, ioa::ActionKind::DummyCompute);
}

CanonicalGeneralService makeEvP(int stabilization) {
  CanonicalGeneralService::Options opts;
  opts.coalesceResponses = true;
  return CanonicalGeneralService(
      types::eventuallyPerfectFailureDetectorType(stabilization), 12,
      {0, 1, 2}, 2, opts);
}

TEST(EventuallyPerfectFD, HasModeTask) {
  auto fd = makeEvP(3);
  int computes = 0;
  for (const auto& t : fd.tasks()) {
    if (t.owner == ioa::TaskOwner::ServiceCompute) ++computes;
  }
  EXPECT_EQ(computes, 4);  // |J| suspicion tasks + 1 mode task
}

TEST(EventuallyPerfectFD, ImperfectPhaseSuspectsEveryoneElse) {
  auto fd = makeEvP(5);
  auto s = fd.initialState();
  fd.apply(*s, *fd.enabledAction(*s, TaskId::serviceCompute(12, 0)));
  auto r = fd.enabledAction(*s, TaskId::serviceOutput(12, 0));
  ASSERT_TRUE(r);
  // Worst-case wrong suspicions while imperfect: everyone but yourself.
  EXPECT_EQ(types::suspectSet(r->payload), Value::set({Value(1), Value(2)}));
}

TEST(EventuallyPerfectFD, ModeTaskCountsDownThenStabilizes) {
  auto fd = makeEvP(2);
  auto s = fd.initialState();
  const TaskId mode = TaskId::serviceCompute(12, 3);
  fd.apply(*s, *fd.enabledAction(*s, mode));
  fd.apply(*s, *fd.enabledAction(*s, mode));
  // Now perfect: suspicions are exactly the failed set.
  fd.apply(*s, Action::fail(2));
  fd.apply(*s, *fd.enabledAction(*s, TaskId::serviceCompute(12, 0)));
  auto r = fd.enabledAction(*s, TaskId::serviceOutput(12, 0));
  ASSERT_TRUE(r);
  EXPECT_EQ(types::suspectSet(r->payload), Value::set({Value(2)}));
}

TEST(EventuallyPerfectFD, ZeroStabilizationIsPerfectImmediately) {
  auto fd = makeEvP(0);
  auto s = fd.initialState();
  fd.apply(*s, *fd.enabledAction(*s, TaskId::serviceCompute(12, 1)));
  auto r = fd.enabledAction(*s, TaskId::serviceOutput(12, 1));
  ASSERT_TRUE(r);
  EXPECT_EQ(types::suspectSet(r->payload), Value::emptySet());
}

TEST(EventuallyPerfectFD, RejectsNegativeStabilization) {
  EXPECT_THROW(types::eventuallyPerfectFailureDetectorType(-1),
               std::logic_error);
}

TEST(FDTypes, SuspectSetRejectsOtherPayloads) {
  EXPECT_THROW(types::suspectSet(sym("decide", 1)), std::logic_error);
}

}  // namespace
}  // namespace boosting::services
