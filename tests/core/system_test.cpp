// Composition semantics (Section 2.2.3): slot layout, participant routing,
// fail fan-out, state value semantics.
#include "ioa/system.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "processes/relay_consensus.h"
#include "services/canonical_atomic.h"
#include "services/register.h"
#include "types/builtin_types.h"

namespace boosting::ioa {
namespace {

using processes::buildRelayConsensusSystem;
using processes::RelaySystemSpec;
using util::sym;
using util::Value;

// The participant slots of `a`, in forEachParticipant order.
std::vector<std::size_t> slotsOf(const System& sys, const Action& a) {
  std::vector<std::size_t> out;
  sys.forEachParticipant(a, [&out](std::size_t slot) { out.push_back(slot); });
  return out;
}

RelaySystemSpec spec3() {
  RelaySystemSpec s;
  s.processCount = 3;
  s.objectResilience = 1;
  return s;
}

TEST(System, SlotLayout) {
  auto sys = buildRelayConsensusSystem(spec3());
  EXPECT_EQ(sys->processCount(), 3);
  EXPECT_EQ(sys->serviceCount(), 2);  // consensus object + scratch register
  EXPECT_EQ(sys->slotForProcess(0), 0u);
  EXPECT_EQ(sys->slotForProcess(2), 2u);
  EXPECT_EQ(sys->slotForService(100), 3u);
  EXPECT_EQ(sys->slotForService(200), 4u);
  EXPECT_TRUE(sys->isProcessSlot(1));
  EXPECT_FALSE(sys->isProcessSlot(3));
}

TEST(System, ServiceMetaRecordsTopology) {
  auto sys = buildRelayConsensusSystem(spec3());
  const ServiceMeta& m = sys->serviceMeta(100);
  EXPECT_EQ(m.id, 100);
  EXPECT_EQ(m.endpoints, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(m.resilience, 1);
  EXPECT_FALSE(m.failureAware);
  EXPECT_FALSE(m.isRegister);
  EXPECT_TRUE(sys->serviceMeta(200).isRegister);
  // Registers are wait-free: resilience |J| - 1.
  EXPECT_EQ(sys->serviceMeta(200).resilience, 2);
}

TEST(System, ServiceIdsSorted) {
  auto sys = buildRelayConsensusSystem(spec3());
  EXPECT_EQ(sys->serviceIds(), (std::vector<int>{100, 200}));
}

TEST(System, UnknownServiceIdThrows) {
  auto sys = buildRelayConsensusSystem(spec3());
  EXPECT_THROW(sys->slotForService(999), std::logic_error);
  EXPECT_THROW(sys->serviceMeta(999), std::logic_error);
}

TEST(System, DuplicateServiceIdRejected) {
  System sys;
  sys.addProcess(std::make_shared<processes::RelayConsensusProcess>(0, 7));
  auto obj = std::make_shared<services::CanonicalAtomicObject>(
      types::binaryConsensusType(), 7, std::vector<int>{0}, 0);
  sys.addService(obj, obj->meta());
  EXPECT_THROW(sys.addService(obj, obj->meta()), std::logic_error);
}

TEST(System, EndpointOutOfRangeRejected) {
  System sys;
  sys.addProcess(std::make_shared<processes::RelayConsensusProcess>(0, 7));
  auto obj = std::make_shared<services::CanonicalAtomicObject>(
      types::binaryConsensusType(), 7, std::vector<int>{0, 1}, 0);
  EXPECT_THROW(sys.addService(obj, obj->meta()), std::logic_error);
}

TEST(System, ProcessesBeforeServicesEnforced) {
  System sys;
  sys.addProcess(std::make_shared<processes::RelayConsensusProcess>(0, 7));
  auto obj = std::make_shared<services::CanonicalAtomicObject>(
      types::binaryConsensusType(), 7, std::vector<int>{0}, 0);
  sys.addService(obj, obj->meta());
  EXPECT_THROW(
      sys.addProcess(std::make_shared<processes::RelayConsensusProcess>(1, 7)),
      std::logic_error);
}

TEST(System, ParticipantsOfInvokeAndRespond) {
  auto sys = buildRelayConsensusSystem(spec3());
  auto inv = Action::invoke(1, 100, sym("init", 0));
  auto participants = slotsOf(*sys, inv);
  ASSERT_EQ(participants.size(), 2u);
  EXPECT_EQ(participants[0], sys->slotForProcess(1));
  EXPECT_EQ(participants[1], sys->slotForService(100));

  auto resp = Action::respond(2, 200, Value::nil());
  participants = slotsOf(*sys, resp);
  ASSERT_EQ(participants.size(), 2u);
  EXPECT_EQ(participants[1], sys->slotForService(200));
}

TEST(System, AtMostTwoParticipantsForNonFailActions) {
  auto sys = buildRelayConsensusSystem(spec3());
  // Section 2.2.3: every action except fail has at most two participants.
  EXPECT_LE(slotsOf(*sys, Action::envInit(0, Value(1))).size(), 2u);
  EXPECT_LE(slotsOf(*sys, Action::envDecide(0, Value(1))).size(), 2u);
  EXPECT_LE(slotsOf(*sys, Action::perform(0, 100)).size(), 2u);
  EXPECT_EQ(slotsOf(*sys, Action::procStep(1)).size(), 1u);
}

TEST(System, FailFansOutToProcessAndItsServices) {
  auto sys = buildRelayConsensusSystem(spec3());
  auto participants = slotsOf(*sys, Action::fail(1));
  // P1 + consensus object + register (both have endpoint 1).
  EXPECT_EQ(participants.size(), 3u);
}

TEST(System, FailOnlyReachesServicesWithThatEndpoint) {
  // Bridge system: consensus object endpoints {0,1}, register {1,2}.
  processes::BridgeSystemSpec spec;
  auto sys = buildBridgeConsensusSystem(spec);
  EXPECT_EQ(slotsOf(*sys, Action::fail(0)).size(), 2u);  // P0 + object
  EXPECT_EQ(slotsOf(*sys, Action::fail(2)).size(), 2u);  // P2 + register
  EXPECT_EQ(slotsOf(*sys, Action::fail(1)).size(), 3u);  // bridge: both
}

TEST(System, InitialStateHasOnePartPerComponent) {
  auto sys = buildRelayConsensusSystem(spec3());
  SystemState s = sys->initialState();
  EXPECT_EQ(s.partCount(), 5u);
}

TEST(SystemState, CopyIsDeepAndEqual) {
  auto sys = buildRelayConsensusSystem(spec3());
  SystemState s = sys->initialState();
  SystemState copy(s);
  EXPECT_TRUE(s.equals(copy));
  EXPECT_EQ(s.hash(), copy.hash());
  // Mutating the copy leaves the original untouched.
  sys->injectInit(copy, 0, Value(1));
  EXPECT_FALSE(s.equals(copy));
}

TEST(SystemState, InitInjectionChangesOnlyThatProcess) {
  auto sys = buildRelayConsensusSystem(spec3());
  SystemState a = sys->initialState();
  SystemState b = sys->initialState();
  sys->injectInit(a, 0, Value(1));
  sys->injectInit(b, 0, Value(1));
  EXPECT_TRUE(a.equals(b));
  EXPECT_EQ(a.hash(), b.hash());
  sys->injectInit(b, 1, Value(0));
  EXPECT_FALSE(a.equals(b));
}

TEST(SystemState, FailInjectionRecordsAtServices) {
  auto sys = buildRelayConsensusSystem(spec3());
  SystemState s = sys->initialState();
  sys->injectFail(s, 2);
  const auto& svc = services::CanonicalGeneralService::stateOf(
      s.part(sys->slotForService(100)));
  EXPECT_EQ(svc.failed.count(2), 1u);
  EXPECT_EQ(svc.failed.size(), 1u);
}

TEST(System, AllTasksCoversProcessesAndServices) {
  auto sys = buildRelayConsensusSystem(spec3());
  const auto& tasks = sys->allTasks();
  // 3 process tasks + (3 perform + 3 output) for each of two services.
  EXPECT_EQ(tasks.size(), 3u + 6u + 6u);
  int processTasks = 0;
  for (const auto& t : tasks) {
    if (t.owner == TaskOwner::Process) ++processTasks;
  }
  EXPECT_EQ(processTasks, 3);
}

TEST(System, EnabledProcessTaskIsAlwaysPresent) {
  // Paper: every process always has some enabled locally controlled action.
  auto sys = buildRelayConsensusSystem(spec3());
  SystemState s = sys->initialState();
  for (int i = 0; i < 3; ++i) {
    auto a = sys->enabled(s, TaskId::process(i));
    ASSERT_TRUE(a.has_value());
    EXPECT_EQ(a->kind, ActionKind::ProcDummy);  // nothing to do before init
  }
  sys->injectInit(s, 0, Value(1));
  auto a = sys->enabled(s, TaskId::process(0));
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->kind, ActionKind::Invoke);
}

TEST(System, ApplyCloneMatchesApplyInPlace) {
  auto sys = buildRelayConsensusSystem(spec3());
  SystemState s = sys->initialState();
  sys->injectInit(s, 0, Value(1));
  Action a = *sys->enabled(s, TaskId::process(0));
  SystemState viaClone = sys->apply(s, a);
  sys->applyInPlace(s, a);
  EXPECT_TRUE(viaClone.equals(s));
}

}  // namespace
}  // namespace boosting::ioa
