// Canonical atomic object semantics (Fig. 1): buffers, perform/output
// tasks, FIFO per endpoint, concurrent invocations, Appendix B (Theorem 11)
// for the canonical consensus object.
#include "services/canonical_atomic.h"

#include <gtest/gtest.h>

#include "types/builtin_types.h"

namespace boosting::services {
namespace {

using ioa::Action;
using ioa::TaskId;
using util::sym;
using util::Value;

CanonicalAtomicObject makeConsensus(int f, int n = 3) {
  std::vector<int> ends;
  for (int i = 0; i < n; ++i) ends.push_back(i);
  return CanonicalAtomicObject(types::binaryConsensusType(), 9, ends, f);
}

TEST(CanonicalObject, InitialStateEmptyBuffers) {
  auto obj = makeConsensus(1);
  auto s = obj.initialState();
  const auto& st = CanonicalGeneralService::stateOf(*s);
  EXPECT_TRUE(st.val.isNil());
  // Empty buffers hold no item; each of the 3 endpoints reads an empty
  // queue.
  EXPECT_TRUE(st.invBuf.items().empty());
  EXPECT_TRUE(st.respBuf.items().empty());
  EXPECT_EQ(obj.endpoints().size(), 3u);
  for (int i : obj.endpoints()) {
    EXPECT_TRUE(st.invBuf[i].empty());
    EXPECT_TRUE(st.respBuf[i].empty());
  }
  EXPECT_TRUE(st.failed.empty());
}

TEST(CanonicalObject, TaskStructurePerEndpoint) {
  auto obj = makeConsensus(1);
  auto tasks = obj.tasks();
  // i-perform and i-output per endpoint, no compute tasks for atomic
  // objects (glob is empty in the Section 5.1 embedding).
  EXPECT_EQ(tasks.size(), 6u);
  int performs = 0, outputs = 0, computes = 0;
  for (const auto& t : tasks) {
    if (t.owner == ioa::TaskOwner::ServicePerform) ++performs;
    if (t.owner == ioa::TaskOwner::ServiceOutput) ++outputs;
    if (t.owner == ioa::TaskOwner::ServiceCompute) ++computes;
  }
  EXPECT_EQ(performs, 3);
  EXPECT_EQ(outputs, 3);
  EXPECT_EQ(computes, 0);
}

TEST(CanonicalObject, InvokePerformRespondCycle) {
  auto obj = makeConsensus(2);
  auto s = obj.initialState();
  // No tasks applicable before an invocation arrives.
  EXPECT_FALSE(obj.enabledAction(*s, TaskId::servicePerform(9, 0)));
  EXPECT_FALSE(obj.enabledAction(*s, TaskId::serviceOutput(9, 0)));

  obj.apply(*s, Action::invoke(0, 9, sym("init", 1)));
  auto perform = obj.enabledAction(*s, TaskId::servicePerform(9, 0));
  ASSERT_TRUE(perform);
  EXPECT_EQ(perform->kind, ioa::ActionKind::Perform);
  obj.apply(*s, *perform);

  auto out = obj.enabledAction(*s, TaskId::serviceOutput(9, 0));
  ASSERT_TRUE(out);
  EXPECT_EQ(out->kind, ioa::ActionKind::Respond);
  EXPECT_EQ(out->payload, sym("decide", 1));
  obj.apply(*s, *out);
  // Buffers drained.
  EXPECT_FALSE(obj.enabledAction(*s, TaskId::serviceOutput(9, 0)));
}

TEST(CanonicalObject, ConsensusFirstPerformWins) {
  auto obj = makeConsensus(2);
  auto s = obj.initialState();
  obj.apply(*s, Action::invoke(0, 9, sym("init", 0)));
  obj.apply(*s, Action::invoke(1, 9, sym("init", 1)));
  // Perform endpoint 1 first: its value is chosen.
  obj.apply(*s, *obj.enabledAction(*s, TaskId::servicePerform(9, 1)));
  obj.apply(*s, *obj.enabledAction(*s, TaskId::servicePerform(9, 0)));
  auto r1 = obj.enabledAction(*s, TaskId::serviceOutput(9, 1));
  auto r0 = obj.enabledAction(*s, TaskId::serviceOutput(9, 0));
  ASSERT_TRUE(r0 && r1);
  EXPECT_EQ(r1->payload, sym("decide", 1));
  EXPECT_EQ(r0->payload, sym("decide", 1));  // agreement at the type level
}

TEST(CanonicalObject, FifoOrderPreservedPerEndpoint) {
  CanonicalAtomicObject reg(types::registerType(), 4, {0, 1}, 1);
  auto s = reg.initialState();
  // Pipelined invocations at the same endpoint: write then read.
  reg.apply(*s, Action::invoke(0, 4, sym("write", 5)));
  reg.apply(*s, Action::invoke(0, 4, sym("read")));
  reg.apply(*s, *reg.enabledAction(*s, TaskId::servicePerform(4, 0)));
  reg.apply(*s, *reg.enabledAction(*s, TaskId::servicePerform(4, 0)));
  // Responses come back in invocation order: ack, then the read value.
  auto r1 = reg.enabledAction(*s, TaskId::serviceOutput(4, 0));
  ASSERT_TRUE(r1);
  EXPECT_EQ(r1->payload, sym("ack"));
  reg.apply(*s, *r1);
  auto r2 = reg.enabledAction(*s, TaskId::serviceOutput(4, 0));
  ASSERT_TRUE(r2);
  EXPECT_EQ(r2->payload, Value(5));
}

TEST(CanonicalObject, PerformOnEmptyBufferThrows) {
  auto obj = makeConsensus(1);
  auto s = obj.initialState();
  EXPECT_THROW(obj.apply(*s, Action::perform(0, 9)), std::logic_error);
}

TEST(CanonicalObject, InvocationFromNonEndpointThrows) {
  CanonicalAtomicObject obj(types::binaryConsensusType(), 9, {0, 1}, 0);
  auto s = obj.initialState();
  // Endpoint 5 is not in J.
  EXPECT_THROW(obj.apply(*s, Action::invoke(5, 9, sym("init", 0))),
               std::logic_error);
}

TEST(CanonicalObject, DeterministicEnabledAction) {
  // At most one action per task per state (Section 3.1).
  auto obj = makeConsensus(2);
  auto s = obj.initialState();
  obj.apply(*s, Action::invoke(0, 9, sym("init", 1)));
  auto a1 = obj.enabledAction(*s, TaskId::servicePerform(9, 0));
  auto a2 = obj.enabledAction(*s, TaskId::servicePerform(9, 0));
  ASSERT_TRUE(a1 && a2);
  EXPECT_EQ(*a1, *a2);
}

TEST(CanonicalObject, StateValueSemantics) {
  auto obj = makeConsensus(2);
  auto s = obj.initialState();
  obj.apply(*s, Action::invoke(0, 9, sym("init", 1)));
  auto copy = s->clone();
  EXPECT_TRUE(s->equals(*copy));
  EXPECT_EQ(s->hash(), copy->hash());
  obj.apply(*s, *obj.enabledAction(*s, TaskId::servicePerform(9, 0)));
  EXPECT_FALSE(s->equals(*copy));
}

TEST(CanonicalObject, ParticipationSignature) {
  auto obj = makeConsensus(1);
  EXPECT_TRUE(obj.participates(Action::invoke(0, 9, sym("init", 0))));
  EXPECT_TRUE(obj.participates(Action::respond(0, 9, Value(0))));
  EXPECT_TRUE(obj.participates(Action::fail(2)));
  EXPECT_FALSE(obj.participates(Action::fail(7)));   // not an endpoint
  EXPECT_FALSE(obj.participates(Action::invoke(0, 8, sym("init", 0))));
  EXPECT_FALSE(obj.participates(Action::envInit(0, Value(1))));
}

TEST(CanonicalObject, WaitFreePredicate) {
  EXPECT_TRUE(makeConsensus(2, 3).isWaitFree());
  EXPECT_TRUE(makeConsensus(5, 3).isWaitFree());
  EXPECT_FALSE(makeConsensus(1, 3).isWaitFree());
}

TEST(CanonicalObject, RejectsBadConstruction) {
  EXPECT_THROW(CanonicalAtomicObject(types::binaryConsensusType(), 1,
                                     std::vector<int>{}, 0),
               std::logic_error);
  EXPECT_THROW(CanonicalAtomicObject(types::binaryConsensusType(), 1,
                                     std::vector<int>{0, 0}, 0),
               std::logic_error);
  EXPECT_THROW(CanonicalAtomicObject(types::binaryConsensusType(), 1,
                                     std::vector<int>{0}, -1),
               std::logic_error);
}

// Appendix B / Theorem 11: the canonical consensus object's responses
// satisfy agreement and validity along any execution we drive by hand.
TEST(CanonicalObject, TheoremElevenAgreementValidity) {
  for (int first = 0; first < 3; ++first) {
    auto obj = makeConsensus(2);
    auto s = obj.initialState();
    const int inputs[3] = {0, 1, 1};
    for (int i = 0; i < 3; ++i) {
      obj.apply(*s, Action::invoke(i, 9, sym("init", inputs[i])));
    }
    // Perform in rotated orders; collect all responses.
    std::vector<Value> decisions;
    for (int k = 0; k < 3; ++k) {
      const int i = (first + k) % 3;
      obj.apply(*s, *obj.enabledAction(*s, TaskId::servicePerform(9, i)));
    }
    for (int i = 0; i < 3; ++i) {
      auto out = obj.enabledAction(*s, TaskId::serviceOutput(9, i));
      ASSERT_TRUE(out);
      decisions.push_back(out->payload.at(1));
    }
    for (const Value& d : decisions) {
      EXPECT_EQ(d, decisions.front());                        // agreement
      EXPECT_TRUE(d == Value(0) || d == Value(1));            // validity
    }
    EXPECT_EQ(decisions.front(), Value(inputs[first]));  // first perform wins
  }
}

}  // namespace
}  // namespace boosting::services
