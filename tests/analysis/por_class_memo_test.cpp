// The POR decision memo is keyed on a configuration's row of enabled
// classes (TransitionCache::enabledClass), not on its per-task actions.
// These cells check that the key is exact and that the statistics still
// count every evaluation:
//   * on every node a certificate explores, the class-row decision (ample
//     mask, enabled mask) equals the unmemoized decision computed from the
//     per-task actions;
//   * evaluations answered from the memo count in nodes_evaluated, the
//     enabled/ample sums and declaration_violations exactly as fresh ones
//     do, on a fixture whose process lies about its task structure.
#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "analysis/bivalence.h"
#include "analysis/metrics.h"
#include "analysis/por.h"
#include "analysis/state_graph.h"
#include "analysis/valence.h"
#include "obs/registry.h"
#include "processes/flooding_consensus.h"
#include "processes/relay_consensus.h"
#include "processes/tob_consensus.h"
#include "services/canonical_atomic.h"
#include "types/builtin_types.h"

namespace boosting::analysis {
namespace {

const auto kPolicy = services::DummyPolicy::PreferDummy;

std::unique_ptr<ioa::System> relay(int n) {
  processes::RelaySystemSpec spec;
  spec.processCount = n;
  spec.objectResilience = 1;
  spec.policy = kPolicy;
  return processes::buildRelayConsensusSystem(spec);
}

std::unique_ptr<ioa::System> bridge(int n) {
  processes::BridgeSystemSpec spec;
  spec.processCount = n;
  spec.policy = kPolicy;
  return processes::buildBridgeConsensusSystem(spec);
}

std::unique_ptr<ioa::System> flooding(int n) {
  processes::FloodingConsensusSpec spec;
  spec.processCount = n;
  spec.channelResilience = 0;
  spec.policy = kPolicy;
  return processes::buildFloodingConsensusSystem(spec);
}

std::unique_ptr<ioa::System> tob(int n) {
  processes::TOBConsensusSpec spec;
  spec.processCount = n;
  spec.serviceResilience = 0;
  spec.policy = kPolicy;
  return processes::buildTOBConsensusSystem(spec);
}

// A relay process that declares a canonical task structure invoking
// nothing, then invokes the consensus object anyway.
class LyingRelayProcess final : public processes::RelayConsensusProcess {
 public:
  using RelayConsensusProcess::RelayConsensusProcess;
  ioa::Automaton::TaskStructure taskStructure() const override {
    ioa::Automaton::TaskStructure ts;
    ts.conformant = true;
    return ts;
  }
};

// Relay n=3 with P0 lying.
std::unique_ptr<ioa::System> lyingRelay() {
  const int objectId = 100;
  auto sys = std::make_unique<ioa::System>();
  sys->addProcess(std::make_shared<LyingRelayProcess>(0, objectId));
  for (int i = 1; i < 3; ++i) {
    sys->addProcess(
        std::make_shared<processes::RelayConsensusProcess>(i, objectId));
  }
  services::CanonicalAtomicObject::Options opts;
  opts.policy = kPolicy;
  auto object = std::make_shared<services::CanonicalAtomicObject>(
      types::binaryConsensusType(), objectId, std::vector<int>{0, 1, 2},
      /*resilience=*/1, opts);
  sys->addService(object, object->meta());
  return sys;
}

// The unmemoized decision for node `id`, from its per-task actions.
std::uint64_t actionDecision(StateGraph& g, NodeId id, const PorPolicy& por,
                             std::uint64_t* enabled) {
  TransitionCache& cache = *g.memo();
  std::vector<const ioa::Action*> actions(g.system().allTasks().size());
  for (std::size_t ti = 0; ti < actions.size(); ++ti) {
    actions[ti] = cache.enabledAction(g.row(id), ti);
  }
  return por.ampleMask(actions, enabled);
}

TEST(PorClassMemo, ClassRowDecisionEqualsActionDecision) {
  struct Fixture {
    std::string name;
    std::unique_ptr<ioa::System> sys;
  };
  std::vector<Fixture> fixtures;
  for (int n = 3; n <= 6; ++n) {
    fixtures.push_back({"relay" + std::to_string(n), relay(n)});
  }
  fixtures.push_back({"bridge4", bridge(4)});
  fixtures.push_back({"flooding3", flooding(3)});
  fixtures.push_back({"tob3", tob(3)});
  for (const Fixture& fx : fixtures) {
    const ioa::System& sys = *fx.sys;
    // The graph a default certificate explores (POR on, Lemma-4 scan).
    StateGraph g(sys, nullptr, PorPolicy::forSystem(sys, PorMode::Auto));
    ASSERT_TRUE(g.porActive()) << fx.name;
    ValenceAnalyzer va(g);
    (void)findBivalentInitialization(g, va);
    ASSERT_GT(g.size(), 100u) << fx.name;

    const auto byClass = PorPolicy::forSystem(sys, PorMode::Auto);
    const auto byAction = PorPolicy::forSystem(sys, PorMode::Auto);
    std::uint64_t reduced = 0;
    for (NodeId id = 0; id < g.size(); ++id) {
      std::uint64_t enabledAction = 0;
      const TransitionCache::AmpleDecision& byRow = g.memo()->decisionAt(
          byClass->ampleDecision(g.row(id), *g.memo()));
      const std::uint64_t enabledClass = byRow.enabled;
      const std::uint64_t ampleClass = byRow.ample;
      const std::uint64_t ampleAction =
          actionDecision(g, id, *byAction, &enabledAction);
      ASSERT_EQ(enabledClass, enabledAction) << fx.name << " node " << id;
      ASSERT_EQ(ampleClass, ampleAction) << fx.name << " node " << id;
      if (ampleClass != enabledClass) ++reduced;
    }
    EXPECT_GT(reduced, 0u) << fx.name << ": no proper ample set compared";
    EXPECT_EQ(byClass->nodesEvaluated(), g.size()) << fx.name;
    EXPECT_EQ(byClass->enabledSum(), byAction->enabledSum()) << fx.name;
    EXPECT_EQ(byClass->ampleSum(), byAction->ampleSum()) << fx.name;
  }
}

TEST(PorClassMemo, EnabledClassIsExactlyWhatThePolicyReads) {
  // Per slot, class ids and the tuples of (kind, invoked service) over
  // the slot's tasks must correspond one to one. The bridge writer
  // invokes two services, so only the service tells its invocations
  // apart.
  using Tuple = std::vector<std::pair<int, int>>;  // (kind+1 or 0, service)
  for (auto& sys : {bridge(4), tob(3)}) {
    StateGraph g(*sys, nullptr, PorPolicy::forSystem(*sys, PorMode::Auto));
    ValenceAnalyzer va(g);
    (void)findBivalentInitialization(g, va);
    TransitionCache& cache = *g.memo();
    const std::vector<ioa::TaskId>& tasks = sys->allTasks();
    std::map<std::pair<std::size_t, std::uint32_t>, Tuple> tupleOf;
    std::map<std::pair<std::size_t, Tuple>, std::uint32_t> classOf;
    std::set<int> invoked;
    for (NodeId id = 0; id < g.size(); ++id) {
      for (std::size_t k = 0; k < g.width(); ++k) {
        Tuple t;
        for (std::size_t ti = 0; ti < tasks.size(); ++ti) {
          if (sys->ownerSlot(tasks[ti]) != k) continue;
          const ioa::Action* a = cache.enabledAction(g.row(id), ti);
          const bool inv = a && a->kind == ioa::ActionKind::Invoke;
          t.emplace_back(a ? static_cast<int>(a->kind) + 1 : 0,
                         inv ? a->component : -1);
          if (inv) invoked.insert(a->component);
        }
        const std::uint32_t c = cache.enabledClass(g.row(id), k);
        ASSERT_EQ(tupleOf.emplace(std::make_pair(k, c), t).first->second, t)
            << "class " << c << " stands for two tuples at slot " << k;
        ASSERT_EQ(classOf.emplace(std::make_pair(k, t), c).first->second, c)
            << "two classes for one tuple at slot " << k;
      }
    }
    EXPECT_GE(invoked.size(), 1u);
  }
}

TEST(PorClassMemo, MemoHitsCountEveryEvaluation) {
  auto sys = lyingRelay();
  const auto por = PorPolicy::forSystem(*sys, PorMode::On);
  ASSERT_FALSE(por->trivial()) << por->disabledReason();
  StateGraph g(*sys, nullptr, por);

  // Reduced BFS from every initialization: one evaluation per node.
  std::deque<NodeId> frontier;
  std::vector<char> queued;
  const auto enqueue = [&](NodeId id) {
    if (id >= queued.size()) queued.resize(id + 1, 0);
    if (!queued[id]) {
      queued[id] = 1;
      frontier.push_back(id);
    }
  };
  for (int ones = 0; ones <= sys->processCount(); ++ones) {
    enqueue(g.intern(canonicalInitialization(*sys, ones)));
  }
  std::vector<NodeId> visited;
  while (!frontier.empty()) {
    const NodeId id = frontier.front();
    frontier.pop_front();
    visited.push_back(id);
    for (const EdgeView e : g.reducedSuccessors(id)) enqueue(e.to);
  }

  // The same evaluations, unmemoized, on a second policy.
  const auto brute = PorPolicy::forSystem(*sys, PorMode::On);
  for (const NodeId id : visited) {
    std::uint64_t enabled = 0;
    (void)actionDecision(g, id, *brute, &enabled);
  }
  EXPECT_GT(brute->declarationViolations(), 0u);
  EXPECT_LT(brute->declarationViolations(), visited.size());

  obs::Registry reg;
  flushGraphMetrics(&reg, g);
  EXPECT_EQ(reg.value("explorer.por.nodes_evaluated"), visited.size());
  EXPECT_EQ(reg.value("explorer.por.declaration_violations"),
            brute->declarationViolations());
  EXPECT_EQ(por->enabledSum(), brute->enabledSum());
  EXPECT_EQ(por->ampleSum(), brute->ampleSum());

  // A second pass is answered from the memo and counts again, exactly.
  for (const NodeId id : visited) {
    (void)por->ampleDecision(g.row(id), *g.memo());
  }
  EXPECT_EQ(por->nodesEvaluated(), 2 * visited.size());
  EXPECT_EQ(por->declarationViolations(),
            2 * brute->declarationViolations());
  EXPECT_EQ(por->enabledSum(), 2 * brute->enabledSum());
  EXPECT_EQ(por->ampleSum(), 2 * brute->ampleSum());
}

TEST(PorClassMemo, AnotherCacheStartsTheMemoAfresh) {
  // Class ids belong to one transition cache: a policy shared by two
  // graphs with private memos must not answer one from the other's ids.
  auto sys = relay(4);
  const auto por = PorPolicy::forSystem(*sys, PorMode::Auto);
  const auto fresh = PorPolicy::forSystem(*sys, PorMode::Auto);
  StateGraph first(*sys, nullptr, por);
  ValenceAnalyzer va1(first);
  (void)findBivalentInitialization(first, va1);
  StateGraph second(*sys);  // private memo, classes interned afresh
  ValenceAnalyzer va2(second);
  (void)findBivalentInitialization(second, va2);
  for (NodeId id = 0; id < second.size(); ++id) {
    const TransitionCache::AmpleDecision& d = second.memo()->decisionAt(
        por->ampleDecision(second.row(id), *second.memo()));
    const std::uint64_t e1 = d.enabled;
    const std::uint64_t m1 = d.ample;
    std::uint64_t e2 = 0;
    const std::uint64_t m2 = actionDecision(second, id, *fresh, &e2);
    ASSERT_EQ(e1, e2) << "node " << id;
    ASSERT_EQ(m1, m2) << "node " << id;
  }
}

}  // namespace
}  // namespace boosting::analysis
