// Oracle test for the transition memo: over every reachable state of four
// candidate systems, TransitionCache::enabledAction and step must agree
// with the unmemoized System::enabled + System::apply, cold and warm.
//
// The cache keys its rows by slot ids, which are hints: a state may carry
// ids issued by another SlotCanonTable. The last two passes feed it the
// same states canonicalized by a second table -- every slot deep-cloned,
// registered in another order, so an id names other content in each
// table -- and then the original states again, to check that a foreign id
// is never trusted and never poisons a row.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <memory>
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

// `s` with every slot id cleared; with `deep`, every slot is also a fresh
// clone (same content, new pointer).
ioa::SystemState unhinted(const ioa::SystemState& s, bool deep) {
  ioa::SystemState c(s);
  for (std::size_t i = 0; i < s.partCount(); ++i) {
    std::shared_ptr<const ioa::AutomatonState> p =
        deep ? std::shared_ptr<const ioa::AutomatonState>(s.part(i).clone())
             : s.slotShared(i);
    c.setSlot(i, std::move(p), s.slotHashValue(i));
  }
  return c;
}

// Every state reachable from the canonical initializations (full
// successor relation, no reduction), canonicalized by `table`.
std::vector<ioa::SystemState> reachable(const ioa::System& sys,
                                        ioa::SlotCanonTable& table) {
  StateGraph g(sys);
  std::deque<NodeId> frontier;
  std::vector<char> seen;
  const auto enqueue = [&](NodeId id) {
    if (id >= seen.size()) seen.resize(id + 1, 0);
    if (seen[id]) return;
    seen[id] = 1;
    frontier.push_back(id);
  };
  for (int ones = 0; ones <= sys.processCount(); ++ones) {
    enqueue(g.intern(canonicalInitialization(sys, ones)));
  }
  while (!frontier.empty()) {
    const NodeId id = frontier.front();
    frontier.pop_front();
    for (const EdgeView e : g.successors(id)) enqueue(e.to);
  }
  std::vector<ioa::SystemState> out;
  out.reserve(g.size());
  for (std::size_t id = 0; id < g.size(); ++id) {
    out.push_back(unhinted(g.state(static_cast<NodeId>(id)), false));
    table.canonicalize(out.back());
  }
  return out;
}

void expectInvariant(const TransitionCache::Stats& st) {
  EXPECT_EQ(st.enabledHits + st.enabledMisses, st.enabledLookups);
  EXPECT_EQ(st.applyHits + st.applyMisses, st.applyLookups);
}

// One pass over every (state, task): the memo against the oracle.
void checkPass(const ioa::System& sys, TransitionCache& cache,
               const std::vector<ioa::SystemState>& states) {
  const std::vector<ioa::TaskId>& tasks = sys.allTasks();
  for (const ioa::SystemState& s : states) {
    ioa::SystemState next;  // reused across the tasks of `s`, as engines do
    for (std::size_t ti = 0; ti < tasks.size(); ++ti) {
      const std::optional<ioa::Action> want = sys.enabled(s, tasks[ti]);
      const ioa::Action* got = cache.enabledAction(s, ti);
      ASSERT_EQ(got != nullptr, want.has_value()) << tasks[ti].str();
      TransitionCache::Transition* t = cache.step(s, ti, &next);
      ASSERT_EQ(t != nullptr, want.has_value()) << tasks[ti].str();
      if (!want) continue;
      EXPECT_EQ(*got, *want);
      EXPECT_EQ(&t->action, got);  // one stable transition per entry
      const ioa::SystemState ref = sys.apply(s, *want);
      ASSERT_TRUE(next.equals(ref)) << tasks[ti].str();
      EXPECT_EQ(next.hash(), ref.hash());
      EXPECT_EQ(next.hash(), next.fullRehash());
    }
  }
}

class TransitionCacheOracle
    : public testing::TestWithParam<std::pair<std::string, int>> {};

TEST_P(TransitionCacheOracle, AgreesWithEnabledAndApplyColdWarmAndForeign) {
  const auto [candidate, n] = GetParam();
  const auto sys = build(candidate, n);
  ioa::SlotCanonTable table;
  const std::vector<ioa::SystemState> states = reachable(*sys, table);
  ASSERT_GT(states.size(), 1u);
  TransitionCache cache(*sys, table);

  // Cold: every entry is computed on its first probe.
  checkPass(*sys, cache, states);
  const TransitionCache::Stats cold = cache.stats();
  expectInvariant(cold);
  EXPECT_GT(cold.enabledMisses, 0u);
  EXPECT_EQ(cache.size(), cold.enabledMisses);

  // Warm: the same states hit every memo.
  checkPass(*sys, cache, states);
  const TransitionCache::Stats warm = cache.stats().deltaSince(cold);
  expectInvariant(warm);
  EXPECT_EQ(warm.enabledMisses, 0u);
  EXPECT_EQ(warm.applyMisses, 0u);
  EXPECT_EQ(warm.enabledLookups, cold.enabledLookups);

  // Foreign: a second table over deep clones hands out ids 0, 1, 2, ...
  // too. It sees the states in reverse order, so the same id names other
  // content there: a cache that trusted ids unchecked would read the
  // wrong rows.
  std::vector<std::pair<std::size_t, const ioa::AutomatonState*>> byId;
  for (const ioa::SystemState& s : states) {
    for (std::size_t i = 0; i < s.partCount(); ++i) {
      if (s.slotId(i) >= byId.size()) byId.resize(s.slotId(i) + 1);
      byId[s.slotId(i)] = {i, &s.part(i)};
    }
  }
  ioa::SlotCanonTable other;
  std::vector<ioa::SystemState> foreign(states.size());
  std::size_t misleading = 0;
  for (std::size_t k = states.size(); k-- > 0;) {
    foreign[k] = unhinted(states[k], true);
    other.canonicalize(foreign[k]);
    for (std::size_t i = 0; i < foreign[k].partCount(); ++i) {
      const std::uint32_t id = foreign[k].slotId(i);
      if (id >= byId.size()) continue;
      const auto [slot, rep] = byId[id];
      if (slot != i || !rep->equals(foreign[k].part(i))) ++misleading;
    }
  }
  ASSERT_GT(misleading, 0u);
  const TransitionCache::Stats beforeForeign = cache.stats();
  checkPass(*sys, cache, foreign);
  // Equal content resolves to the rows the first table's states built.
  EXPECT_EQ(cache.stats().deltaSince(beforeForeign).enabledMisses, 0u);
  EXPECT_EQ(cache.size(), cold.enabledMisses);

  // The rows stay unpoisoned for the original states.
  const TransitionCache::Stats beforeAgain = cache.stats();
  checkPass(*sys, cache, states);
  const TransitionCache::Stats again = cache.stats().deltaSince(beforeAgain);
  EXPECT_EQ(again.enabledMisses, 0u);
  EXPECT_EQ(again.applyMisses, 0u);
  expectInvariant(cache.stats());
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
