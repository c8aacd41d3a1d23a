// ServiceState's flat per-endpoint buffers (EndpointQueues): FIFO order,
// structural equality and hashing independent of how a state was reached,
// relabeling of endpoint keys, and the exact str() text the symmetry layer
// tie-breaks orbit representatives on.
#include <gtest/gtest.h>

#include "services/canonical_atomic.h"
#include "types/builtin_types.h"

namespace boosting::services {
namespace {

using ioa::Action;
using ioa::TaskId;
using util::sym;
using util::Value;

CanonicalAtomicObject makeRegister() {
  return CanonicalAtomicObject(types::registerType(), 4, {0, 1, 2}, 1);
}

TEST(ServiceState, QueuesStayFifo) {
  auto reg = makeRegister();
  auto s = reg.initialState();
  for (int v = 1; v <= 4; ++v) {
    reg.apply(*s, Action::invoke(1, 4, sym("write", v)));
  }
  reg.apply(*s, Action::invoke(1, 4, sym("read")));
  const auto& st = CanonicalGeneralService::stateOf(*s);
  ASSERT_EQ(st.invBuf.at(1).size(), 5u);
  EXPECT_EQ(st.invBuf.at(1).front(), sym("write", 1));
  EXPECT_EQ(st.invBuf.at(1).back(), sym("read"));
  // Performs consume the inv-buffer head first: the read sees the last
  // write, and the responses queue up in invocation order.
  for (int k = 0; k < 5; ++k) {
    reg.apply(*s, *reg.enabledAction(*s, TaskId::servicePerform(4, 1)));
  }
  EXPECT_TRUE(st.invBuf.at(1).empty());
  EXPECT_EQ(st.respBuf.at(1),
            (EndpointQueues::Queue{sym("ack"), sym("ack"), sym("ack"),
                                   sym("ack"), Value(4)}));
  for (int k = 0; k < 4; ++k) {
    auto out = reg.enabledAction(*s, TaskId::serviceOutput(4, 1));
    ASSERT_TRUE(out);
    EXPECT_EQ(out->payload, sym("ack"));
    reg.apply(*s, *out);
  }
  auto last = reg.enabledAction(*s, TaskId::serviceOutput(4, 1));
  ASSERT_TRUE(last);
  EXPECT_EQ(last->payload, Value(4));
}

TEST(ServiceState, InterleavingsReachingTheSameBuffersAreEqual) {
  auto reg = makeRegister();
  auto a = reg.initialState();
  reg.apply(*a, Action::invoke(0, 4, sym("write", 1)));
  reg.apply(*a, Action::invoke(2, 4, sym("read")));
  reg.apply(*a, Action::invoke(0, 4, sym("read")));
  auto b = reg.initialState();
  reg.apply(*b, Action::invoke(2, 4, sym("read")));
  reg.apply(*b, Action::invoke(0, 4, sym("write", 1)));
  reg.apply(*b, Action::invoke(0, 4, sym("read")));
  EXPECT_TRUE(a->equals(*b));
  EXPECT_TRUE(b->equals(*a));
  EXPECT_EQ(a->hash(), b->hash());
  EXPECT_EQ(a->str(), b->str());

  auto copy = a->clone();
  EXPECT_TRUE(copy->equals(*a));
  EXPECT_EQ(copy->hash(), a->hash());

  // Same multiset of invocations, different per-endpoint order: unequal.
  auto c = reg.initialState();
  reg.apply(*c, Action::invoke(0, 4, sym("read")));
  reg.apply(*c, Action::invoke(0, 4, sym("write", 1)));
  reg.apply(*c, Action::invoke(2, 4, sym("read")));
  EXPECT_FALSE(c->equals(*a));
}

TEST(ServiceState, RelabelingRemapsKeysAndKeepsQueueOrder) {
  auto reg = makeRegister();
  auto s = reg.initialState();
  reg.apply(*s, Action::invoke(0, 4, sym("write", 3)));
  reg.apply(*s, Action::invoke(0, 4, sym("read")));
  reg.apply(*s, Action::invoke(2, 4, sym("write", 9)));
  reg.apply(*s, Action::fail(1));
  // perm[i] is the new identity of endpoint i: 0 -> 2, 1 -> 0, 2 -> 1.
  auto r = reg.relabeledState(*s, {2, 0, 1});
  const auto& rs = CanonicalGeneralService::stateOf(*r);
  EXPECT_EQ(rs.invBuf.at(2),
            (EndpointQueues::Queue{sym("write", 3), sym("read")}));
  EXPECT_EQ(rs.invBuf.at(1), (EndpointQueues::Queue{sym("write", 9)}));
  EXPECT_TRUE(rs.invBuf.at(0).empty());
  EXPECT_EQ(rs.failed, (std::set<int>{0}));
  std::vector<int> keys;
  for (const auto& [i, q] : rs.invBuf) keys.push_back(i);
  EXPECT_EQ(keys, (std::vector<int>{0, 1, 2}));
  // The inverse permutation restores the original state.
  auto back = reg.relabeledState(*r, {1, 2, 0});
  EXPECT_TRUE(back->equals(*s));
  EXPECT_EQ(back->hash(), s->hash());
}

TEST(ServiceState, StrIsPinned) {
  auto reg = makeRegister();
  auto s = reg.initialState();
  EXPECT_EQ(s->str(), "val=nil inv={} resp={}");
  // write 5 and read pipelined at endpoint 0, write 7 at endpoint 2, the
  // write at 0 performed, endpoint 1 failed.
  reg.apply(*s, Action::invoke(0, 4, sym("write", 5)));
  reg.apply(*s, Action::invoke(0, 4, sym("read")));
  reg.apply(*s, Action::invoke(2, 4, sym("write", 7)));
  reg.apply(*s, *reg.enabledAction(*s, TaskId::servicePerform(4, 0)));
  reg.apply(*s, Action::fail(1));
  EXPECT_EQ(s->str(),
            "val=5 inv={0:[(read)], 2:[(write 7)]} resp={0:[(ack)]} "
            "failed={1}");
  EXPECT_EQ(reg.relabeledState(*s, {2, 0, 1})->str(),
            "val=5 inv={1:[(write 7)], 2:[(read)]} resp={2:[(ack)]} "
            "failed={0}");
}

TEST(ServiceState, KeyedLookup) {
  EndpointQueues q;
  q[5].push_back(Value(1));
  q[2];
  q[9];
  EXPECT_EQ(q.size(), 3u);
  std::vector<int> keys;
  for (const auto& [i, queue] : q) keys.push_back(i);
  EXPECT_EQ(keys, (std::vector<int>{2, 5, 9}));
  EXPECT_EQ(q.find(5)->second, (EndpointQueues::Queue{Value(1)}));
  EXPECT_EQ(q.find(4), q.end());
  EXPECT_THROW(q.at(4), std::out_of_range);
  const EndpointQueues& cq = q;
  EXPECT_TRUE(cq.at(9).empty());
  EXPECT_EQ(cq.find(10), cq.end());
}

}  // namespace
}  // namespace boosting::services
