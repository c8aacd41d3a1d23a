// ServiceState's flat per-endpoint buffers (EndpointQueues): FIFO order,
// structural equality and hashing independent of how a state was reached,
// relabeling of endpoint keys, the exact str() text the symmetry layer
// tie-breaks orbit representatives on, and a seeded differential against
// a std::map<int, std::deque<Value>> model.
#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <numeric>
#include <random>

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

std::vector<Value> values(EndpointQueues::Queue q) {
  std::vector<Value> out;
  for (std::size_t k = 0; k < q.size(); ++k) out.push_back(q[k]);
  return out;
}

TEST(ServiceState, QueuesStayFifo) {
  auto reg = makeRegister();
  auto s = reg.initialState();
  for (int v = 1; v <= 4; ++v) {
    reg.apply(*s, Action::invoke(1, 4, sym("write", v)));
  }
  reg.apply(*s, Action::invoke(1, 4, sym("read")));
  const auto& st = CanonicalGeneralService::stateOf(*s);
  ASSERT_EQ(st.invBuf[1].size(), 5u);
  EXPECT_EQ(st.invBuf[1].front(), sym("write", 1));
  EXPECT_EQ(st.invBuf[1].back(), sym("read"));
  // Performs consume the inv-buffer head first: the read sees the last
  // write, and the responses queue up in invocation order.
  for (int k = 0; k < 5; ++k) {
    reg.apply(*s, *reg.enabledAction(*s, TaskId::servicePerform(4, 1)));
  }
  EXPECT_TRUE(st.invBuf[1].empty());
  EXPECT_EQ(values(st.respBuf[1]),
            (std::vector<Value>{sym("ack"), sym("ack"), sym("ack"), sym("ack"),
                                Value(4)}));
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
  EXPECT_EQ(values(rs.invBuf[2]),
            (std::vector<Value>{sym("write", 3), sym("read")}));
  EXPECT_EQ(values(rs.invBuf[1]), (std::vector<Value>{sym("write", 9)}));
  EXPECT_TRUE(rs.invBuf[0].empty());
  EXPECT_EQ(rs.failed, (std::set<int>{0}));
  // Items stay endpoint-sorted, FIFO within each endpoint.
  std::vector<int> keys;
  for (const auto& item : rs.invBuf.items()) keys.push_back(item.endpoint);
  EXPECT_EQ(keys, (std::vector<int>{1, 2, 2}));
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
  q.push(5, Value(1));
  q.push(2, Value(7));
  q.push(9, Value(3));
  q.push(5, Value(2));
  EXPECT_EQ(q.items().size(), 4u);
  std::vector<int> keys;
  q.forEachQueue([&](int i, EndpointQueues::Queue) { keys.push_back(i); });
  EXPECT_EQ(keys, (std::vector<int>{2, 5, 9}));
  EXPECT_EQ(values(q[5]), (std::vector<Value>{Value(1), Value(2)}));
  // An endpoint without items has an empty queue, below, between and
  // above the present ones.
  EXPECT_TRUE(q[0].empty());
  EXPECT_TRUE(q[4].empty());
  EXPECT_TRUE(q[10].empty());
  EXPECT_EQ(q.popFront(2), Value(7));
  EXPECT_TRUE(q[2].empty());
  EXPECT_THROW(q.popFront(2), std::logic_error);
  EXPECT_THROW(q.popFront(4), std::logic_error);
  // Membership is the automaton's: it rejects traffic of a non-endpoint.
  auto reg = makeRegister();
  auto s = reg.initialState();
  EXPECT_THROW(reg.apply(*s, Action::invoke(7, 4, sym("read"))),
               std::logic_error);
  EXPECT_TRUE(CanonicalGeneralService::stateOf(*s).invBuf.items().empty());
}

TEST(ServiceState, QueueViewsCompareByValues) {
  EndpointQueues q;
  q.push(0, sym("write", 1));
  q.push(1, sym("write", 1));
  q.push(1, sym("read"));
  q.push(2, sym("write", 2));
  EXPECT_NE(q[0], q[1]);
  EXPECT_EQ(q[0], q[0]);
  EXPECT_EQ(q[3], q[4]);  // two empty queues
  // Prefix first, then by the first differing value.
  EXPECT_EQ(q[0].compare(q[1]), -1);
  EXPECT_EQ(q[1].compare(q[0]), 1);
  EXPECT_EQ(q[0].compare(q[2]), -1);
  EXPECT_EQ(q[2].compare(q[1]), 1);
  EXPECT_EQ(q[3].compare(q[0]), -1);
  EXPECT_EQ(q[1].compare(q[1]), 0);
}

// The model: one deque per endpoint that has ever been named, rendered as
// ServiceState::str() renders the nonempty buffers.
using Model = std::map<int, std::deque<Value>>;

std::string render(const Model& m) {
  std::string s = "{";
  bool first = true;
  for (const auto& [i, q] : m) {
    if (q.empty()) continue;
    if (!first) s += ", ";
    first = false;
    s += std::to_string(i) + ":[";
    for (std::size_t k = 0; k < q.size(); ++k) {
      if (k > 0) s += " ";
      s += q[k].str();
    }
    s += "]";
  }
  return s + "}";
}

bool sameContents(const Model& a, const Model& b) {
  for (int i = 0; i < 8; ++i) {
    const auto ia = a.find(i);
    const auto ib = b.find(i);
    const std::size_t na = ia == a.end() ? 0 : ia->second.size();
    const std::size_t nb = ib == b.end() ? 0 : ib->second.size();
    if (na != nb) return false;
    if (na != 0 && ia->second != ib->second) return false;
  }
  return true;
}

void expectMatches(const EndpointQueues& q, const Model& m) {
  for (int i = 0; i < 8; ++i) {
    const auto it = m.find(i);
    const std::deque<Value> want =
        it == m.end() ? std::deque<Value>{} : it->second;
    const EndpointQueues::Queue got = q[i];
    ASSERT_EQ(got.size(), want.size()) << "endpoint " << i;
    for (std::size_t k = 0; k < want.size(); ++k) {
      EXPECT_EQ(got[k], want[k]) << "endpoint " << i << " position " << k;
    }
    if (!want.empty()) {
      EXPECT_EQ(got.front(), want.front());
      EXPECT_EQ(got.back(), want.back());
    }
  }
  // No item is stored for an empty queue, and items stay endpoint-sorted.
  std::size_t total = 0;
  for (const auto& [i, d] : m) total += d.size();
  EXPECT_EQ(q.items().size(), total);
  EXPECT_TRUE(std::is_sorted(
      q.items().begin(), q.items().end(),
      [](const auto& a, const auto& b) { return a.endpoint < b.endpoint; }));
}

TEST(EndpointQueuesOracle, RandomPushPopRelabelMatchModel) {
  const std::vector<Value> pool = {
      sym("init", 0), sym("init", 1), sym("decide", 1), sym("chosen", 0),
      Value(3), Value("ack"), Value::emptySet(),
      Value::list({sym("decide", 0), Value::set({Value(2), Value(5)})})};
  for (std::uint32_t seed = 1; seed <= 40; ++seed) {
    std::mt19937 rng(seed);
    const auto pick = [&](int n) {
      return static_cast<int>(rng() % static_cast<std::uint32_t>(n));
    };
    // Two tables built side by side: `a` by the random walk, `b` replaying
    // the same per-endpoint pushes in another interleaving at checkpoints.
    EndpointQueues a;
    Model m;
    for (int step = 0; step < 200; ++step) {
      const int op = pick(10);
      const int i = pick(8);
      if (op < 5) {
        const Value& v = pool[static_cast<std::size_t>(pick(
            static_cast<int>(pool.size())))];
        a.push(i, v);
        m[i].push_back(v);
      } else if (op < 9) {
        auto it = m.find(i);
        if (it == m.end() || it->second.empty()) {
          EXPECT_TRUE(a[i].empty());
          EXPECT_THROW(a.popFront(i), std::logic_error);
          continue;
        }
        EXPECT_EQ(a.popFront(i), it->second.front());
        it->second.pop_front();
      } else {
        std::vector<int> perm(8);
        std::iota(perm.begin(), perm.end(), 0);
        std::shuffle(perm.begin(), perm.end(), rng);
        a = a.relabeled(perm);
        Model r;
        for (auto& [k, d] : m) r[perm[static_cast<std::size_t>(k)]] = d;
        m = std::move(r);
      }
      ASSERT_NO_FATAL_FAILURE(expectMatches(a, m)) << "seed " << seed;

      if (step % 25 == 24) {
        // Rebuild from the model endpoint by endpoint, highest first: the
        // same contents reached another way must be equal, and the
        // rendering must be the model's.
        EndpointQueues b;
        for (auto it = m.rbegin(); it != m.rend(); ++it) {
          for (const Value& v : it->second) b.push(it->first, v);
        }
        EXPECT_TRUE(a == b) << "seed " << seed;
        ServiceState sa;
        sa.invBuf = a;
        sa.respBuf = a.relabeled({7, 6, 5, 4, 3, 2, 1, 0});
        ServiceState sb;
        sb.invBuf = b;
        sb.respBuf = b.relabeled({7, 6, 5, 4, 3, 2, 1, 0});
        EXPECT_TRUE(sa.equals(sb));
        EXPECT_EQ(sa.hash(), sb.hash());
        Model mr;
        for (const auto& [k, d] : m) mr[7 - k] = d;
        EXPECT_EQ(sa.str(),
                  "val=nil inv=" + render(m) + " resp=" + render(mr));
      }
    }
  }
}

TEST(EndpointQueuesOracle, EqualityMatchesModelEquality) {
  // Random pairs of small tables: == agrees with the model's per-endpoint
  // contents, and equal tables hash equal inside a ServiceState.
  for (std::uint32_t seed = 1; seed <= 300; ++seed) {
    std::mt19937 rng(seed);
    EndpointQueues q[2];
    Model m[2];
    for (int side = 0; side < 2; ++side) {
      const int pushes = static_cast<int>(rng() % 4);
      for (int k = 0; k < pushes; ++k) {
        const int i = static_cast<int>(rng() % 3);
        const Value v = sym("v", static_cast<int>(rng() % 2));
        q[side].push(i, v);
        m[side][i].push_back(v);
      }
    }
    const bool same = sameContents(m[0], m[1]);
    EXPECT_EQ(q[0] == q[1], same) << "seed " << seed;
    ServiceState s0;
    s0.invBuf = q[0];
    ServiceState s1;
    s1.invBuf = q[1];
    EXPECT_EQ(s0.equals(s1), same) << "seed " << seed;
    if (same) {
      EXPECT_EQ(s0.hash(), s1.hash());
    }
    EXPECT_EQ(s0.str() == s1.str(), same) << "seed " << seed;
  }
}

}  // namespace
}  // namespace boosting::services
