// The graph's row store: every configuration is a row of slot ids, and
// state(id) materializes it on request. These tests pin what the rest of
// the engine relies on: the rows decode to exactly the configurations a
// from-first-principles BFS over System::enabled/apply reaches, under the
// same numbering; interning a materialized state finds its own node;
// state(id) keeps its address while the graph grows; and a graph on a warm
// shared memo (the served path) numbers, values and witnesses exactly like
// a cold one.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/adversary.h"
#include "analysis/bivalence.h"
#include "analysis/hook.h"
#include "analysis/state_graph.h"
#include "analysis/valence.h"
#include "processes/flooding_consensus.h"
#include "processes/relay_consensus.h"
#include "processes/rotating_consensus.h"
#include "processes/tob_consensus.h"

namespace boosting::analysis {
namespace {

struct Fixture {
  std::string name;
  std::unique_ptr<ioa::System> sys;
};

std::vector<Fixture> fixtures() {
  const auto policy = services::DummyPolicy::PreferDummy;
  std::vector<Fixture> out;
  {
    processes::RelaySystemSpec spec;
    spec.processCount = 4;
    spec.objectResilience = 1;
    spec.policy = policy;
    out.push_back({"relay4", processes::buildRelayConsensusSystem(spec)});
  }
  {
    processes::FloodingConsensusSpec spec;
    spec.processCount = 3;
    spec.channelResilience = 1;
    spec.policy = policy;
    out.push_back({"flooding3", processes::buildFloodingConsensusSystem(spec)});
  }
  {
    processes::TOBConsensusSpec spec;
    spec.processCount = 3;
    spec.serviceResilience = 1;
    spec.policy = policy;
    out.push_back({"tob3", processes::buildTOBConsensusSystem(spec)});
  }
  {
    processes::BridgeSystemSpec spec;
    spec.processCount = 4;
    spec.bridgeEndpoint = 2;
    spec.objectResilience = 1;
    spec.policy = policy;
    out.push_back({"bridge4", processes::buildBridgeConsensusSystem(spec)});
  }
  {
    processes::SingleFDConsensusSpec spec;
    spec.processCount = 3;
    spec.fdResilience = 0;
    spec.policy = policy;
    out.push_back(
        {"single-fd3", processes::buildSingleFDRotatingConsensusSystem(spec)});
  }
  return out;
}

// The oracle: configurations numbered in first-discovery order -- the
// canonical initializations, then the successors of each configuration in
// id order and task order -- computed with System::enabled/apply alone.
std::vector<ioa::SystemState> oracleStates(const ioa::System& sys) {
  std::vector<ioa::SystemState> states;
  std::unordered_multimap<std::size_t, std::size_t> byHash;
  const auto add = [&](ioa::SystemState s) {
    const std::size_t h = s.hash();
    const auto [lo, hi] = byHash.equal_range(h);
    for (auto it = lo; it != hi; ++it) {
      if (states[it->second].equals(s)) return;
    }
    byHash.emplace(h, states.size());
    states.push_back(std::move(s));
  };
  for (int ones = 0; ones <= sys.processCount(); ++ones) {
    add(canonicalInitialization(sys, ones));
  }
  for (std::size_t k = 0; k < states.size(); ++k) {
    for (const ioa::TaskId& t : sys.allTasks()) {
      if (const auto a = sys.enabled(states[k], t)) {
        add(sys.apply(states[k], *a));
      }
    }
  }
  return states;
}

TEST(RowStore, RowsDecodeToTheOracleStatesUnderTheSameNumbering) {
  for (const Fixture& fx : fixtures()) {
    const ioa::System& sys = *fx.sys;
    const std::vector<ioa::SystemState> want = oracleStates(sys);
    StateGraph g(sys);
    for (int ones = 0; ones <= sys.processCount(); ++ones) {
      g.intern(canonicalInitialization(sys, ones));
    }
    for (NodeId id = 0; id < g.size(); ++id) (void)g.successors(id);
    ASSERT_EQ(g.size(), want.size()) << fx.name;
    EXPECT_EQ(g.width(), want[0].partCount()) << fx.name;
    for (NodeId id = 0; id < g.size(); ++id) {
      const ioa::SystemState& s = g.state(id);
      ASSERT_TRUE(s.equals(want[id])) << fx.name << " node " << id;
      EXPECT_EQ(s.hash(), want[id].hash()) << fx.name << " node " << id;
      EXPECT_EQ(s.hash(), s.fullRehash()) << fx.name << " node " << id;
      for (std::size_t k = 0; k < g.width(); ++k) {
        ASSERT_EQ(&g.slotState(id, k), &s.part(k)) << fx.name;
      }
      ASSERT_EQ(g.intern(s), id) << fx.name;
      ASSERT_EQ(g.intern(want[id]), id) << fx.name;
    }
    EXPECT_EQ(g.size(), want.size()) << fx.name;
    std::string why;
    EXPECT_TRUE(g.checkConsistent(&why)) << fx.name << ": " << why;
  }
}

TEST(RowStore, StateKeepsItsAddressWhileTheGraphGrows) {
  processes::RelaySystemSpec spec;
  spec.processCount = 4;
  spec.objectResilience = 1;
  const auto sys = processes::buildRelayConsensusSystem(spec);
  StateGraph g(*sys);
  const NodeId root = g.intern(canonicalInitialization(*sys, 1));
  const ioa::SystemState* before = &g.state(root);
  const std::uint32_t* rowBefore = g.row(root);
  const ioa::SystemState copy = *before;
  // Grow past the first row chunks (1,024 rows in all) while
  // materializing every node.
  for (int ones = 0; ones <= sys->processCount(); ++ones) {
    g.intern(canonicalInitialization(*sys, ones));
  }
  for (NodeId id = 0; id < g.size(); ++id) {
    (void)g.successors(id);
    (void)g.state(id);
  }
  ASSERT_GT(g.size(), 1100u);
  EXPECT_EQ(&g.state(root), before);
  EXPECT_EQ(g.row(root), rowBefore);
  EXPECT_TRUE(before->equals(copy));
  std::string why;
  EXPECT_TRUE(g.checkConsistent(&why)) << why;
}

// The served path: a graph on a memo that earlier jobs already filled.
TEST(RowStore, WarmSharedMemoMatchesColdGraph) {
  for (const Fixture& fx : fixtures()) {
    const ioa::System& sys = *fx.sys;
    const auto por = PorPolicy::forSystem(sys, PorMode::Auto);
    const auto runGraph = [&](std::shared_ptr<TransitionCache> memo) {
      auto g = std::make_unique<StateGraph>(sys, nullptr, por, memo);
      ValenceAnalyzer va(*g);
      const BivalenceResult biv = findBivalentInitialization(*g, va);
      if (biv.bivalent) (void)findHook(*g, va, biv.bivalent->node);
      std::vector<Valence> valences;
      for (NodeId id = 0; id < g->size(); ++id) {
        valences.push_back(va.explored(id) ? va.valence(id) : Valence::Null);
      }
      return std::make_pair(std::move(g), valences);
    };
    const auto [cold, coldValences] = runGraph(nullptr);
    const auto memo = std::make_shared<TransitionCache>(sys);
    (void)runGraph(memo);  // warms the memo
    const auto [warm, warmValences] = runGraph(memo);
    ASSERT_EQ(warm->size(), cold->size()) << fx.name;
    EXPECT_EQ(warmValences, coldValences) << fx.name;
    for (NodeId id = 0; id < cold->size(); ++id) {
      ASSERT_TRUE(warm->state(id).equals(cold->state(id)))
          << fx.name << " node " << id;
    }
    std::string why;
    EXPECT_TRUE(warm->checkConsistent(&why)) << fx.name << ": " << why;

    AdversaryConfig cfg;
    cfg.claimedFailures = 1;
    cfg.por = PorMode::Auto;
    const AdversaryReport coldReport = analyzeConsensusCandidate(sys, cfg);
    cfg.memo = memo;
    const AdversaryReport warmReport = analyzeConsensusCandidate(sys, cfg);
    EXPECT_EQ(warmReport.summary(), coldReport.summary()) << fx.name;
    EXPECT_EQ(warmReport.statesExplored, coldReport.statesExplored);
    EXPECT_EQ(warmReport.witness.actions(), coldReport.witness.actions())
        << fx.name;
    EXPECT_EQ(warmReport.witnessFailures, coldReport.witnessFailures);
  }
}

}  // namespace
}  // namespace boosting::analysis
