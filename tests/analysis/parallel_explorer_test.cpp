// Differential serial-vs-parallel exploration harness.
//
// The parallel engine's whole contract (analysis/parallel_explorer.h) is
// that thread count is UNOBSERVABLE: for any fixture and any worker count,
// the StateGraph it produces -- node ids, states, parents, successor
// lists -- and every downstream proof artifact (valences, Lemma 4
// outcomes, hooks, adversary verdicts) must be bit-for-bit identical to
// the serial explorer's. These tests check that equivalence over the same
// system fixtures the valence/hook/adversary suites use, at 2, 4 and 8
// workers, plus a repeated-run stress case to shake out scheduling
// nondeterminism.
#include "analysis/parallel_explorer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "analysis/adversary.h"
#include "analysis/bivalence.h"
#include "analysis/hook.h"
#include "analysis/valence.h"
#include "processes/relay_consensus.h"
#include "processes/tob_consensus.h"

namespace boosting::analysis {
namespace {

using processes::buildRelayConsensusSystem;
using processes::buildTOBConsensusSystem;
using processes::RelaySystemSpec;
using processes::TOBConsensusSpec;

constexpr unsigned kThreadCounts[] = {2, 4, 8};

std::unique_ptr<ioa::System> relay(int n, int f,
                                   bool adversarial = false) {
  RelaySystemSpec spec;
  spec.processCount = n;
  spec.objectResilience = f;
  spec.addScratchRegister = false;
  if (adversarial) spec.policy = services::DummyPolicy::PreferDummy;
  return buildRelayConsensusSystem(spec);
}

std::unique_ptr<ioa::System> tob(int n, int f) {
  TOBConsensusSpec spec;
  spec.processCount = n;
  spec.serviceResilience = f;
  spec.policy = services::DummyPolicy::PreferDummy;
  return buildTOBConsensusSystem(spec);
}

// Bit-for-bit graph equality: same node count, the same state behind every
// node id, the same first-discovery parent chains (via pathTo), and the
// same cached successor lists.
void expectSameGraph(StateGraph& serial, StateGraph& parallel) {
  ASSERT_EQ(serial.size(), parallel.size());
  for (NodeId id = 0; id < serial.size(); ++id) {
    ASSERT_TRUE(serial.state(id).equals(parallel.state(id)))
        << "state mismatch at node " << id;
    const auto se = serial.cachedSuccessors(id);
    const auto pe = parallel.cachedSuccessors(id);
    ASSERT_EQ(se.has_value(), pe.has_value()) << "cache mismatch at " << id;
    if (!se) continue;
    ASSERT_EQ(se->size(), pe->size()) << "fan-out mismatch at " << id;
    for (std::size_t k = 0; k < se->size(); ++k) {
      EXPECT_EQ((*se)[k].task, (*pe)[k].task) << "edge task at " << id;
      EXPECT_EQ((*se)[k].to, (*pe)[k].to) << "edge target at " << id;
    }
    auto sp = serial.pathTo(id);
    auto pp = parallel.pathTo(id);
    ASSERT_EQ(sp.size(), pp.size()) << "witness path length at " << id;
    for (std::size_t k = 0; k < sp.size(); ++k) {
      EXPECT_EQ(sp[k].task, pp[k].task);
      EXPECT_EQ(sp[k].to, pp[k].to);
    }
  }
}

TEST(ParallelExplorer, ReachableRegionMatchesSerial) {
  for (auto [n, f] : {std::pair{2, 0}, std::pair{3, 0}, std::pair{3, 1}}) {
    auto sysSerial = relay(n, f);
    StateGraph gs(*sysSerial);
    NodeId rootS = gs.intern(canonicalInitialization(*sysSerial, 1));
    auto statsS = exploreReachable(gs, rootS, ExplorationPolicy{1, 0});
    EXPECT_EQ(statsS.statesDiscovered, gs.size());
    for (unsigned t : kThreadCounts) {
      auto sysPar = relay(n, f);
      StateGraph gp(*sysPar);
      NodeId rootP = gp.intern(canonicalInitialization(*sysPar, 1));
      ASSERT_EQ(rootS, rootP);
      auto statsP = exploreReachable(gp, rootP, ExplorationPolicy{t, 0});
      EXPECT_EQ(statsP.statesDiscovered, statsS.statesDiscovered)
          << "n=" << n << " f=" << f << " threads=" << t;
      EXPECT_FALSE(statsP.truncated);
      expectSameGraph(gs, gp);
    }
  }
}

TEST(ParallelExplorer, ValenceVerdictsMatchSerialPerInitialization) {
  // The full Lemma 4 scan (multi-root shared expansion) must classify every
  // canonical initialization exactly as the serial scan does.
  for (auto [n, f] : {std::pair{2, 0}, std::pair{3, 1}}) {
    auto sysSerial = relay(n, f);
    StateGraph gs(*sysSerial);
    ValenceAnalyzer vas(gs);
    auto serial = findBivalentInitialization(gs, vas, ExplorationPolicy{1});
    for (unsigned t : kThreadCounts) {
      auto sysPar = relay(n, f);
      StateGraph gp(*sysPar);
      ValenceAnalyzer vap(gp);
      vap.setPolicy(ExplorationPolicy{t});
      auto par = findBivalentInitialization(gp, vap, ExplorationPolicy{t});
      ASSERT_EQ(par.initializations.size(), serial.initializations.size());
      for (std::size_t j = 0; j < serial.initializations.size(); ++j) {
        EXPECT_EQ(par.initializations[j].node, serial.initializations[j].node);
        EXPECT_EQ(par.initializations[j].valence,
                  serial.initializations[j].valence)
            << "alpha_" << j << " threads=" << t;
      }
      ASSERT_EQ(par.bivalent.has_value(), serial.bivalent.has_value());
      if (serial.bivalent) {
        EXPECT_EQ(par.bivalent->node, serial.bivalent->node);
        EXPECT_EQ(par.bivalent->onesPrefix, serial.bivalent->onesPrefix);
      }
      expectSameGraph(gs, gp);
      // Per-node valences agree over the serially numbered graph.
      for (NodeId id = 0; id < gs.size(); ++id) {
        ASSERT_EQ(vas.explored(id), vap.explored(id)) << "node " << id;
        if (vas.explored(id)) {
          EXPECT_EQ(vas.valence(id), vap.valence(id)) << "node " << id;
        }
      }
    }
  }
}

TEST(ParallelExplorer, HookSearchMatchesSerial) {
  auto run = [](unsigned threads) {
    auto sys = relay(3, 0);
    auto g = std::make_unique<StateGraph>(*sys);
    auto va = std::make_unique<ValenceAnalyzer>(*g);
    va->setPolicy(ExplorationPolicy{threads});
    auto biv =
        findBivalentInitialization(*g, *va, ExplorationPolicy{threads});
    EXPECT_TRUE(biv.bivalent.has_value());
    return std::tuple{std::move(sys), std::move(g), std::move(va),
                      findHook(*g, *va, biv.bivalent->node, 1u << 20,
                               ExplorationPolicy{threads})};
  };
  auto [sysS, gS, vaS, serial] = run(1);
  ASSERT_TRUE(serial.hook.has_value());
  for (unsigned t : kThreadCounts) {
    auto [sysP, gP, vaP, par] = run(t);
    ASSERT_TRUE(par.hook.has_value()) << "threads=" << t;
    EXPECT_EQ(par.hook->alpha, serial.hook->alpha);
    EXPECT_EQ(par.hook->e, serial.hook->e);
    EXPECT_EQ(par.hook->ePrime, serial.hook->ePrime);
    EXPECT_EQ(par.hook->alpha0, serial.hook->alpha0);
    EXPECT_EQ(par.hook->alphaPrime, serial.hook->alphaPrime);
    EXPECT_EQ(par.hook->alpha1, serial.hook->alpha1);
    EXPECT_EQ(par.hook->alpha0Valence, serial.hook->alpha0Valence);
    EXPECT_EQ(par.hook->alpha1Valence, serial.hook->alpha1Valence);
    EXPECT_EQ(par.fairCycle, serial.fairCycle);
    EXPECT_EQ(par.iterations, serial.iterations);
    expectSameGraph(*gS, *gP);
  }
}

TEST(ParallelExplorer, AdversaryVerdictMatchesSerial) {
  // End to end: the whole Theorem-2 pipeline is thread-count invariant --
  // same verdict, same proof artifacts, same witness execution.
  struct Fixture {
    const char* name;
    std::unique_ptr<ioa::System> (*build)();
  };
  const Fixture fixtures[] = {
      {"relay(2,0)", [] { return relay(2, 0, true); }},
      {"relay(3,1)", [] { return relay(3, 1, true); }},
      {"tob(2,0)", [] { return tob(2, 0); }},
  };
  for (const auto& fx : fixtures) {
    auto sysS = fx.build();
    AdversaryConfig cfgS;
    cfgS.claimedFailures =
        std::string(fx.name) == "relay(3,1)" ? 2 : 1;
    auto serial = analyzeConsensusCandidate(*sysS, cfgS);
    for (unsigned t : kThreadCounts) {
      auto sysP = fx.build();
      AdversaryConfig cfgP = cfgS;
      cfgP.exploration.threads = t;
      auto par = analyzeConsensusCandidate(*sysP, cfgP);
      EXPECT_EQ(par.verdict, serial.verdict)
          << fx.name << " threads=" << t;
      EXPECT_EQ(par.witnessFailures, serial.witnessFailures) << fx.name;
      EXPECT_EQ(par.statesExplored, serial.statesExplored) << fx.name;
      ASSERT_EQ(par.witness.size(), serial.witness.size()) << fx.name;
      ASSERT_EQ(par.hook.has_value(), serial.hook.has_value());
      if (serial.hook) {
        EXPECT_EQ(par.hook->alpha, serial.hook->alpha);
        EXPECT_EQ(par.hook->e, serial.hook->e);
        EXPECT_EQ(par.hook->ePrime, serial.hook->ePrime);
      }
      ASSERT_EQ(par.initializations.size(), serial.initializations.size());
      for (std::size_t j = 0; j < serial.initializations.size(); ++j) {
        EXPECT_EQ(par.initializations[j].valence,
                  serial.initializations[j].valence);
      }
    }
  }
}

TEST(ParallelExplorer, RepeatedRunsAreDeterministic) {
  // x20 stress: thread scheduling varies run to run, the installed graph
  // must not.
  auto sysSerial = relay(3, 0);
  StateGraph gs(*sysSerial);
  NodeId rootS = gs.intern(canonicalInitialization(*sysSerial, 1));
  exploreReachable(gs, rootS, ExplorationPolicy{1});
  for (int run = 0; run < 20; ++run) {
    auto sysPar = relay(3, 0);
    StateGraph gp(*sysPar);
    NodeId rootP = gp.intern(canonicalInitialization(*sysPar, 1));
    auto stats = exploreReachable(gp, rootP, ExplorationPolicy{4});
    EXPECT_EQ(stats.statesDiscovered, gs.size()) << "run " << run;
    expectSameGraph(gs, gp);
  }
}

TEST(ParallelExplorer, MaxStatesTruncates) {
  auto sys = relay(3, 0);
  StateGraph g(*sys);
  NodeId root = g.intern(canonicalInitialization(*sys, 1));
  auto stats = exploreReachable(g, root, ExplorationPolicy{4, 50});
  EXPECT_TRUE(stats.truncated);
  EXPECT_GE(stats.statesDiscovered, 50u);
  // The installed graph holds exactly the discovered states; truncated
  // frontier leaves have no cached successors.
  EXPECT_EQ(g.size(), stats.statesDiscovered);
  bool someLeaf = false;
  for (NodeId id = 0; id < g.size(); ++id) {
    if (!g.cachedSuccessors(id)) someLeaf = true;
  }
  EXPECT_TRUE(someLeaf);
}

TEST(ParallelExplorer, SerialMaxStatesAlsoTruncates) {
  auto sys = relay(3, 0);
  StateGraph g(*sys);
  NodeId root = g.intern(canonicalInitialization(*sys, 1));
  auto stats = exploreReachable(g, root, ExplorationPolicy{1, 50});
  EXPECT_TRUE(stats.truncated);
  EXPECT_EQ(g.size(), stats.statesDiscovered);
}

TEST(ParallelExplorer, ZeroThreadsUsesHardwareConcurrency) {
  auto sysSerial = relay(2, 0);
  StateGraph gs(*sysSerial);
  NodeId rootS = gs.intern(canonicalInitialization(*sysSerial, 1));
  exploreReachable(gs, rootS, ExplorationPolicy{1});

  auto sysPar = relay(2, 0);
  StateGraph gp(*sysPar);
  NodeId rootP = gp.intern(canonicalInitialization(*sysPar, 1));
  auto stats = exploreReachable(gp, rootP, ExplorationPolicy{0});
  EXPECT_GE(stats.threadsUsed, 1u);
  expectSameGraph(gs, gp);
}

TEST(ResolveWorkers, OneZeroAndFour) {
  EXPECT_EQ(resolveWorkers(1, 8), 1u);
  // threads = 0 follows the host: on a one-core host that is the serial
  // path, not the two-phase engine with a single worker.
  EXPECT_EQ(resolveWorkers(0, 1), 1u);
  EXPECT_EQ(resolveWorkers(0, 0), 1u);  // hardware_concurrency() unknown
  EXPECT_EQ(resolveWorkers(4, 1), 4u);
  EXPECT_EQ(resolveWorkers(1000, 1), kMaxWorkers);
  EXPECT_EQ(resolveWorkers(0),
            std::max(1u, std::thread::hardware_concurrency()));
}

}  // namespace
}  // namespace boosting::analysis
