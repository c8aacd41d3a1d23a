// Oracle test for the transition memo: over every reachable configuration
// of four candidate systems, TransitionCache::enabledAction and step must
// agree with the unmemoized System::enabled + System::apply, cold and warm.
//
// The cache trusts the slot ids of the rows it is given; configurations
// from elsewhere enter a graph's id space only at StateGraph::intern,
// which looks every slot up by content. The foreign cells check that
// boundary: the same configurations canonicalized by a second
// SlotCanonTable -- every slot deep-cloned, registered in another order,
// so an id names other content in each table -- must intern to the
// original nodes, add no transition entries, and expand like the oracle.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/bivalence.h"
#include "analysis/state_graph.h"
#include "analysis/transition_cache.h"
#include "processes/flooding_consensus.h"
#include "processes/relay_consensus.h"
#include "processes/tob_consensus.h"

namespace boosting::analysis {
namespace {

std::unique_ptr<ioa::System> build(const std::string& candidate, int n) {
  const auto policy = services::DummyPolicy::PreferDummy;
  if (candidate == "relay") {
    processes::RelaySystemSpec spec;
    spec.processCount = n;
    spec.objectResilience = 1;
    spec.policy = policy;
    return processes::buildRelayConsensusSystem(spec);
  }
  if (candidate == "bridge") {
    processes::BridgeSystemSpec spec;
    spec.processCount = n;
    spec.bridgeEndpoint = n / 2;
    spec.objectResilience = 1;
    spec.policy = policy;
    return processes::buildBridgeConsensusSystem(spec);
  }
  if (candidate == "tob") {
    processes::TOBConsensusSpec spec;
    spec.processCount = n;
    spec.serviceResilience = 1;
    spec.policy = policy;
    return processes::buildTOBConsensusSystem(spec);
  }
  processes::FloodingConsensusSpec spec;
  spec.processCount = n;
  spec.channelResilience = 1;
  spec.policy = policy;
  return processes::buildFloodingConsensusSystem(spec);
}

// `s` with every slot a fresh deep clone (same content, new pointer).
ioa::SystemState deepCloned(const ioa::SystemState& s) {
  ioa::SystemState c(s);
  for (std::size_t i = 0; i < s.partCount(); ++i) {
    c.setSlot(i, std::shared_ptr<const ioa::AutomatonState>(s.part(i).clone()),
              s.slotHashValue(i));
  }
  return c;
}

// Expands every configuration reachable from the canonical initializations
// (full successor relation, no reduction), in node id order.
void exploreAll(StateGraph& g) {
  const ioa::System& sys = g.system();
  for (int ones = 0; ones <= sys.processCount(); ++ones) {
    g.intern(canonicalInitialization(sys, ones));
  }
  for (NodeId id = 0; id < g.size(); ++id) (void)g.successors(id);
}

void expectInvariant(const TransitionCache::Stats& st) {
  EXPECT_EQ(st.enabledHits + st.enabledMisses, st.enabledLookups);
  EXPECT_EQ(st.applyHits + st.applyMisses, st.applyLookups);
}

// One pass over every (node, task) of `g` against the oracle: each node's
// configuration is canonicalized into `cache`'s own table (for the graph's
// cache, that is the node's row) and stepped there.
void checkPass(const StateGraph& g, TransitionCache& cache) {
  const ioa::System& sys = g.system();
  ioa::SlotCanonTable& table = cache.slotCanon();
  const std::vector<ioa::TaskId>& tasks = sys.allTasks();
  std::vector<std::uint32_t> row(cache.width());
  std::vector<std::uint32_t> next(cache.width());
  ioa::SystemState got;
  for (NodeId id = 0; id < g.size(); ++id) {
    const ioa::SystemState& s = g.state(id);
    table.canonicalize(s, row.data());
    const std::uint32_t* ids = row.data();
    for (std::size_t ti = 0; ti < tasks.size(); ++ti) {
      const std::optional<ioa::Action> want = sys.enabled(s, tasks[ti]);
      const ioa::Action* action = cache.enabledAction(ids, ti);
      ASSERT_EQ(action != nullptr, want.has_value()) << tasks[ti].str();
      const std::uint32_t ai = cache.step(ids, ti, next.data());
      ASSERT_EQ(ai != TransitionCache::kDisabled, want.has_value())
          << tasks[ti].str();
      if (!want) continue;
      EXPECT_EQ(*action, *want);
      ASSERT_LT(ai, cache.actionPoolSize());
      EXPECT_EQ(&cache.actionAt(ai), action);  // one pooled action per entry
      for (std::size_t k = 0; k < next.size(); ++k) {
        ASSERT_LT(next[k], table.size());
        ASSERT_EQ(table.rep(next[k]).slot, k);  // an id of this slot
      }
      table.materialize(next.data(), next.size(), &got);
      const ioa::SystemState ref = sys.apply(s, *want);
      ASSERT_TRUE(got.equals(ref)) << tasks[ti].str();
      EXPECT_EQ(got.hash(), ref.hash());
      EXPECT_EQ(got.hash(), got.fullRehash());
    }
  }
}

class TransitionCacheOracle
    : public testing::TestWithParam<std::pair<std::string, int>> {};

TEST_P(TransitionCacheOracle, AgreesWithEnabledAndApplyColdAndWarm) {
  const auto [candidate, n] = GetParam();
  const auto sys = build(candidate, n);
  StateGraph g(*sys);
  exploreAll(g);
  ASSERT_GT(g.size(), 1u);
  // A second cache with its own table, cold: the graph's configurations
  // enter it by content.
  TransitionCache cache(*sys);

  // Cold: every entry is computed on its first probe.
  checkPass(g, cache);
  const TransitionCache::Stats cold = cache.stats();
  expectInvariant(cold);
  EXPECT_GT(cold.enabledMisses, 0u);
  EXPECT_EQ(cache.size(), cold.enabledMisses);

  // Warm: the same rows hit every memo.
  checkPass(g, cache);
  const TransitionCache::Stats warm = cache.stats().deltaSince(cold);
  expectInvariant(warm);
  EXPECT_EQ(warm.enabledMisses, 0u);
  EXPECT_EQ(warm.applyMisses, 0u);
  EXPECT_EQ(warm.enabledLookups, cold.enabledLookups);
}

// An entry is its action's pool index: equal actions enabled from
// different (owner id, task) entries share one index, every index names a
// distinct action, and enabledAction points into the memo's pool.
TEST_P(TransitionCacheOracle, EqualActionsShareOnePoolIndex) {
  const auto [candidate, n] = GetParam();
  const auto sys = build(candidate, n);
  StateGraph g(*sys);
  exploreAll(g);
  TransitionCache& cache = *g.memo();
  const std::vector<ioa::TaskId>& tasks = sys->allTasks();
  std::vector<std::uint32_t> next(cache.width());
  // Pool index -> the (owner id, task) entries that enable its action.
  std::map<std::uint32_t, std::set<std::pair<std::uint32_t, std::size_t>>>
      entriesOf;
  for (NodeId id = 0; id < g.size(); ++id) {
    const std::uint32_t* ids = g.row(id);
    for (std::size_t ti = 0; ti < tasks.size(); ++ti) {
      const std::uint32_t ai = cache.step(ids, ti, next.data());
      const ioa::Action* action = cache.enabledAction(ids, ti);
      if (ai == TransitionCache::kDisabled) {
        EXPECT_EQ(action, nullptr);
        continue;
      }
      ASSERT_LT(ai, cache.actionPoolSize());
      EXPECT_EQ(action, &cache.actionAt(ai));
      const std::uint32_t owner = ids[sys->ownerSlot(tasks[ti])];
      entriesOf[ai].emplace(owner, ti);
    }
  }
  EXPECT_EQ(entriesOf.size(), cache.actionPoolSize());  // no idle action
  for (std::uint32_t a = 0; a < cache.actionPoolSize(); ++a) {
    for (std::uint32_t b = a + 1; b < cache.actionPoolSize(); ++b) {
      ASSERT_FALSE(cache.actionAt(a) == cache.actionAt(b)) << a << " " << b;
    }
  }
  std::size_t shared = 0;
  for (const auto& [ai, entries] : entriesOf) {
    if (entries.size() > 1) ++shared;
  }
  EXPECT_GT(shared, 0u);
  EXPECT_LT(cache.actionPoolSize(), cache.size());
}

TEST_P(TransitionCacheOracle, ForeignStatesInternToTheirNodes) {
  const auto [candidate, n] = GetParam();
  const auto sys = build(candidate, n);
  StateGraph g(*sys);
  exploreAll(g);
  const std::size_t nodes = g.size();
  const std::size_t entries = g.memo()->size();
  const ioa::SlotCanonTable& table = g.memo()->slotCanon();

  // A second table over deep clones hands out ids 0, 1, 2, ... too. It
  // sees the configurations in reverse order, so the same id names other
  // content there: a graph that trusted a foreign id would pick the wrong
  // node or transition row.
  ioa::SlotCanonTable other;
  std::vector<ioa::SystemState> foreign(nodes);
  std::vector<std::uint32_t> ids(g.width());
  std::size_t misleading = 0;
  for (std::size_t k = nodes; k-- > 0;) {
    other.canonicalize(deepCloned(g.state(static_cast<NodeId>(k))),
                       ids.data());
    other.materialize(ids.data(), ids.size(), &foreign[k]);
    const std::uint32_t* mine = g.row(static_cast<NodeId>(k));
    for (std::size_t i = 0; i < ids.size(); ++i) {
      EXPECT_NE(&foreign[k].part(i), &g.state(static_cast<NodeId>(k)).part(i));
      if (ids[i] != mine[i]) ++misleading;
    }
  }
  ASSERT_GT(misleading, 0u);

  // Equal content resolves to the original ids: no node, transition entry
  // or representative is added.
  const std::size_t reps = table.size();
  for (std::size_t k = 0; k < nodes; ++k) {
    ASSERT_EQ(g.intern(foreign[k]), static_cast<NodeId>(k));
  }
  EXPECT_EQ(g.size(), nodes);
  EXPECT_EQ(g.memo()->size(), entries);
  EXPECT_EQ(table.size(), reps);

  // Expanding the foreign configurations, as roots of a graph on the same
  // (warm) memo, adds no transition entry and matches the oracle.
  StateGraph h(*sys, nullptr, nullptr, g.memo());
  for (std::size_t k = 0; k < nodes; ++k) {
    const NodeId id = h.intern(foreign[k]);
    std::size_t edge = 0;
    const EdgeList edges = h.successors(id);
    for (const ioa::TaskId& task : sys->allTasks()) {
      const std::optional<ioa::Action> a = sys->enabled(foreign[k], task);
      if (!a) continue;
      ASSERT_LT(edge, edges.size());
      EXPECT_EQ(edges[edge].action, *a);
      ASSERT_TRUE(h.state(edges[edge].to).equals(sys->apply(foreign[k], *a)))
          << task.str();
      ++edge;
    }
    EXPECT_EQ(edge, edges.size());
  }
  EXPECT_EQ(g.memo()->size(), entries);
  std::string why;
  EXPECT_TRUE(h.checkConsistent(&why)) << why;
  expectInvariant(g.memo()->stats());
}

// A component state whose hash() is constant: every content collides.
class CollidingState final : public ioa::AutomatonState {
 public:
  explicit CollidingState(int v) : v_(v) {}
  std::unique_ptr<ioa::AutomatonState> clone() const override {
    return std::make_unique<CollidingState>(v_);
  }
  std::size_t hash() const override { return 42; }
  bool equals(const ioa::AutomatonState& other) const override {
    const auto* c = dynamic_cast<const CollidingState*>(&other);
    return c != nullptr && c->v_ == v_;
  }
  std::string str() const override { return "colliding " + std::to_string(v_); }

 private:
  int v_;
};

TEST(SlotCanonTable, CollidingContentsKeepTheirOwnIds) {
  ioa::SlotCanonTable table;
  // Each call registers a fresh object, so only the deep equals can tell
  // an old content from a new one.
  const auto canon = [&table](std::size_t slot, int v) {
    auto s = std::make_shared<const CollidingState>(v);
    return table.canonicalizeSlot(slot, s, s->hash());
  };
  // Distinct contents under one hash at one slot: distinct ids, issued in
  // registration order.
  for (std::uint32_t v = 0; v < 5; ++v) {
    EXPECT_EQ(canon(0, static_cast<int>(v)), v);
  }
  // Equal contents: the same id, and no new representative.
  for (std::uint32_t v = 5; v-- > 0;) {
    EXPECT_EQ(canon(0, static_cast<int>(v)), v);
  }
  EXPECT_EQ(table.size(), 5u);
  // The representative itself resolves to its id.
  EXPECT_EQ(table.canonicalizeSlot(0, table.rep(3).state, 42), 3u);
  // The same content at another slot: another id, then that id again.
  EXPECT_EQ(canon(1, 2), 5u);
  EXPECT_EQ(canon(1, 2), 5u);
  EXPECT_EQ(table.rep(5).slot, 1u);
  EXPECT_EQ(canon(0, 2), 2u);
  EXPECT_EQ(table.size(), 6u);
}

INSTANTIATE_TEST_SUITE_P(
    Candidates, TransitionCacheOracle,
    testing::Values(std::make_pair(std::string("relay"), 4),
                    std::make_pair(std::string("flooding"), 3),
                    std::make_pair(std::string("tob"), 3),
                    std::make_pair(std::string("bridge"), 4)),
    [](const auto& info) {
      return info.param.first + std::to_string(info.param.second);
    });

}  // namespace
}  // namespace boosting::analysis
