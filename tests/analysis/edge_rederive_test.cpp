// A stored edge is its target node alone, and a first-discovery parent its
// `from` node alone: the task and action of an edge are re-derived from
// the source row (the enabled tasks of a full list, the memoized ample
// mask of a reduced one, the transition memo's entry for each task). These
// cells check the re-derivation against the System itself, pin the parent
// rule where two tasks of one node reach the same successor, and pin the
// memo and reduction counters, which re-derivation must not move.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "analysis/adversary.h"
#include "analysis/bivalence.h"
#include "analysis/hook.h"
#include "analysis/por.h"
#include "analysis/state_graph.h"
#include "analysis/symmetry.h"
#include "analysis/valence.h"
#include "obs/registry.h"
#include "processes/flooding_consensus.h"
#include "processes/relay_consensus.h"
#include "processes/rotating_consensus.h"
#include "processes/tob_consensus.h"

namespace boosting::analysis {
namespace {

constexpr auto kDummy = services::DummyPolicy::PreferDummy;

// The candidates as the command-line analyzer builds them.
std::unique_ptr<ioa::System> relay(int n, int f) {
  processes::RelaySystemSpec spec;
  spec.processCount = n;
  spec.objectResilience = f;
  spec.policy = kDummy;
  return processes::buildRelayConsensusSystem(spec);
}

std::unique_ptr<ioa::System> tob(int n, int f) {
  processes::TOBConsensusSpec spec;
  spec.processCount = n;
  spec.serviceResilience = f;
  spec.policy = kDummy;
  return processes::buildTOBConsensusSystem(spec);
}

std::unique_ptr<ioa::System> flooding(int n, int f) {
  processes::FloodingConsensusSpec spec;
  spec.processCount = n;
  spec.channelResilience = f;
  spec.policy = kDummy;
  return processes::buildFloodingConsensusSystem(spec);
}

std::unique_ptr<ioa::System> singleFd(int n, int f) {
  processes::SingleFDConsensusSpec spec;
  spec.processCount = n;
  spec.fdResilience = f;
  spec.policy = kDummy;
  return processes::buildSingleFDRotatingConsensusSystem(spec);
}

// Every edge of `l` (a list of node `x`) against a fresh
// System::enabled on x's materialized state: the tasks ascend, each is
// enabled with exactly the re-derived action, and applying it reaches the
// stored target. A full list lists every enabled task; a reduced one the
// tasks of the policy's reference (unmemoized) ample mask.
void expectListMatchesSystem(StateGraph& g, const PorPolicy* por, NodeId x,
                             const EdgeList& l, bool reduced,
                             std::uint64_t* checked) {
  const ioa::System& sys = g.system();
  const std::vector<ioa::TaskId>& tasks = sys.allTasks();
  const ioa::SystemState s = g.state(x);
  std::vector<std::optional<ioa::Action>> fresh(tasks.size());
  std::vector<const ioa::Action*> actions(tasks.size(), nullptr);
  std::vector<std::size_t> listed;
  for (std::size_t ti = 0; ti < tasks.size(); ++ti) {
    fresh[ti] = sys.enabled(s, tasks[ti]);
    if (fresh[ti]) {
      actions[ti] = &*fresh[ti];
      listed.push_back(ti);
    }
  }
  if (reduced) {
    ASSERT_NE(por, nullptr);
    std::uint64_t enabled = 0;
    const std::uint64_t ample = por->ampleMask(actions, &enabled);
    listed.clear();
    for (std::uint64_t m = ample; m != 0; m &= m - 1) {
      listed.push_back(static_cast<std::size_t>(std::countr_zero(m)));
    }
  }
  ASSERT_EQ(l.size(), listed.size()) << "node " << x;
  std::size_t k = 0;
  for (auto it = l.begin(); it != l.end(); ++it, ++k) {
    const std::size_t ti = listed[k];
    ASSERT_EQ(it.taskIndex(), ti) << "node " << x << " edge " << k;
    const EdgeView e = *it;
    EXPECT_EQ(&e.task, &tasks[ti]);
    ASSERT_EQ(e.action, *fresh[ti]) << "node " << x << " edge " << k;
    EXPECT_EQ(&e.action, &g.actionAt(it.actionIndex()));
    ioa::SystemState next = s;
    sys.applyInPlace(next, *fresh[ti]);
    // intern() canonicalizes under the quotient; the target exists, so
    // nothing is inserted.
    const std::size_t before = g.size();
    EXPECT_EQ(g.intern(next), e.to) << "node " << x << " edge " << k;
    EXPECT_EQ(g.size(), before);
    ++*checked;
  }
}

struct Cell {
  const char* name;
  std::unique_ptr<ioa::System> (*build)();
  SymmetryMode symmetry;
};

// The certificate's own explorations (the Lemma-4 scan over the reduced
// tier, then the Fig. 3 walk over full lists), then every cached list of
// both tiers checked against the System.
TEST(EdgeRederive, EveryEdgeMatchesSystemEnabled) {
  const Cell cells[] = {
      {"relay(4,1) symmetry off", [] { return relay(4, 1); },
       SymmetryMode::Off},
      {"relay(4,1) symmetry on", [] { return relay(4, 1); },
       SymmetryMode::On},
      {"tob(3,1)", [] { return tob(3, 1); }, SymmetryMode::Off},
      {"flooding(3,1)", [] { return flooding(3, 1); }, SymmetryMode::Off},
      {"single-fd(3,1)", [] { return singleFd(3, 1); }, SymmetryMode::Off},
  };
  for (const Cell& c : cells) {
    SCOPED_TRACE(c.name);
    const auto sys = c.build();
    const auto por = PorPolicy::forSystem(*sys, PorMode::Auto);
    StateGraph g(*sys, SymmetryPolicy::forSystem(*sys, c.symmetry), por);
    ValenceAnalyzer va(g);
    const BivalenceResult b = findBivalentInitialization(g, va);
    if (b.bivalent) (void)findHook(g, va, b.bivalent->node);
    const NodeId n = static_cast<NodeId>(g.size());
    std::uint64_t full = 0;
    std::uint64_t reduced = 0;
    for (NodeId x = 0; x < n; ++x) {
      if (const auto l = g.cachedSuccessors(x)) {
        expectListMatchesSystem(g, por.get(), x, *l, false, &full);
      }
      // Proper reduced lists only: an alias is the full list above.
      const auto r = g.cachedReducedSuccessors(x);
      const auto f = g.cachedSuccessors(x);
      if (r && !(f && r->data() == f->data() && r->size() == f->size())) {
        expectListMatchesSystem(g, por.get(), x, *r, true, &reduced);
      }
      if (HasFatalFailure()) return;
    }
    EXPECT_EQ(full, g.stats().edgesDiscovered);
    EXPECT_EQ(reduced, g.stats().reducedEdges);
    EXPECT_GT(full, 0u);
    if (g.porActive()) {
      EXPECT_GT(reduced, 0u);
    }
    std::string why;
    EXPECT_TRUE(g.checkConsistent(&why)) << why;
  }
}

// Relay(3,1) under the quotient, from the all-zero initialization: every
// process task reaches the same orbit representative. The root's ample
// decision is seeded to task P1 alone, so the reduced list reaches that
// successor by P1 while the full list reaches it first by P0. Which one
// discovered it depends on which tier was expanded first; the pins below
// are the tasks the graph recorded per node when parents stored the task.
std::vector<std::string> witnessTasks(bool reducedFirst) {
  const auto sys = relay(3, 1);
  StateGraph g(*sys, SymmetryPolicy::forSystem(*sys, SymmetryMode::On),
               PorPolicy::forSystem(*sys, PorMode::Auto));
  const NodeId root = g.intern(canonicalInitialization(*sys, 0));
  const std::vector<ioa::TaskId>& tasks = sys->allTasks();
  std::uint64_t enabled = 0;
  for (std::size_t ti = 0; ti < tasks.size(); ++ti) {
    if (sys->enabled(g.state(root), tasks[ti])) enabled |= 1ull << ti;
  }
  std::uint64_t ample = 0;
  for (std::size_t ti = 0; ti < tasks.size(); ++ti) {
    if (tasks[ti] == ioa::TaskId::process(1)) ample = 1ull << ti;
  }
  (void)g.memo()->ampleDecision(g.row(root), [&] {
    TransitionCache::AmpleDecision d;
    d.ample = ample;
    d.enabled = enabled;
    return d;
  });
  // Two levels, each node's tiers in the requested order.
  std::deque<std::pair<NodeId, int>> frontier{{root, 0}};
  std::vector<char> seen(1, 1);
  while (!frontier.empty()) {
    const auto [x, depth] = frontier.front();
    frontier.pop_front();
    if (reducedFirst) (void)g.reducedSuccessors(x);
    const EdgeList full = g.successors(x);
    if (!reducedFirst) (void)g.reducedSuccessors(x);
    if (depth == 1) continue;
    for (const EdgeView e : full) {
      if (e.to >= seen.size()) seen.resize(e.to + 1, 0);
      if (!seen[e.to]) {
        seen[e.to] = 1;
        frontier.emplace_back(e.to, depth + 1);
      }
    }
  }
  std::vector<std::string> out;
  for (NodeId id = 0; id < g.size(); ++id) {
    std::string line = std::to_string(id) + ":";
    for (const Edge& e : g.pathTo(id)) line += " " + e.task.str();
    out.push_back(line);
  }
  std::string why;
  EXPECT_TRUE(g.checkConsistent(&why)) << why;
  return out;
}

TEST(EdgeRederive, ParentRuleReducedThenFull) {
  const std::vector<std::string> want = {
      "0:",
      "1: task(P1)",
      "2: task(P1) task(P1)",
      "3: task(P1) task(S100.0-perform)",
  };
  EXPECT_EQ(witnessTasks(true), want);
}

TEST(EdgeRederive, ParentRuleFullThenReduced) {
  const std::vector<std::string> want = {
      "0:",
      "1: task(P0)",
      "2: task(P0) task(P1)",
      "3: task(P0) task(S100.0-perform)",
  };
  EXPECT_EQ(witnessTasks(false), want);
}

// The transition memo and the reduction count what the engines look up
// and decide, never a re-derivation: a whole relay(4,1) certificate reads
// exactly the tallies it read when every edge stored its task and action.
TEST(EdgeRederive, CountersMatchStoredLabelEngine) {
  struct Pin {
    SymmetryMode symmetry;
    std::vector<std::pair<const char*, std::uint64_t>> counters;
  };
  const Pin pins[] = {
      {SymmetryMode::Auto,
       {{"cache.enabled_lookups", 20406},
        {"cache.enabled_hits", 18530},
        {"cache.enabled_misses", 1876},
        {"cache.apply_lookups", 6003},
        {"cache.apply_hits", 5324},
        {"cache.apply_misses", 679},
        {"explorer.por.nodes_evaluated", 1356},
        {"explorer.por.states_reduced", 823},
        {"explorer.por.tasks_skipped", 3043},
        {"explorer.por.cycle_proviso_hits", 55},
        {"explorer.por.ample_avg", 568},
        {"graph.edges_discovered", 3123},
        {"graph.states_discovered", 1381}}},
      {SymmetryMode::On,
       {{"cache.enabled_lookups", 12352},
        {"cache.enabled_hits", 11267},
        {"cache.enabled_misses", 1085},
        {"cache.apply_lookups", 2895},
        {"cache.apply_hits", 2396},
        {"cache.apply_misses", 499},
        {"explorer.por.nodes_evaluated", 460},
        {"explorer.por.states_reduced", 230},
        {"explorer.por.tasks_skipped", 862},
        {"explorer.por.cycle_proviso_hits", 80},
        {"explorer.por.ample_avg", 531},
        {"graph.edges_discovered", 1729},
        {"graph.states_discovered", 480}}},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE(pin.symmetry == SymmetryMode::On ? "symmetry on"
                                                  : "symmetry auto");
    const auto sys = relay(4, 1);
    obs::Registry reg;
    AdversaryConfig cfg;
    cfg.claimedFailures = 2;
    cfg.exemptFailureAware = true;
    cfg.exploration.metrics = &reg;
    cfg.symmetry = pin.symmetry;
    cfg.por = PorMode::Auto;
    (void)analyzeConsensusCandidate(*sys, cfg);
    for (const auto& [name, value] : pin.counters) {
      EXPECT_EQ(reg.value(name), value) << name;
    }
  }
}

}  // namespace
}  // namespace boosting::analysis
