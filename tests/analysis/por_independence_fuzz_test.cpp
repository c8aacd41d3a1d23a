// Fuzz oracle for the POR independence relation: the policy's ample sets
// implicitly claim that every (ample, non-ample) pair of enabled tasks is
// independent -- the non-ample step neither disables the ample one nor
// breaks the commuting diamond. The footprint tables behind that claim
// are DECLARED by the components (ioa::Automaton::taskStructure), so this
// suite validates them against ground truth: sample reachable states of
// every fixture, and for each proper ample set check, pair by pair, that
//   (1) enabledness is preserved in both orders (the diamond closes), and
//   (2) the two application orders land in the SAME state (s.a.b == s.b.a
//       by deep SystemState equality).
// A violation prints the seed, fixture and state index, which replays the
// exact sampled state deterministically.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/bivalence.h"
#include "analysis/por.h"
#include "analysis/state_graph.h"
#include "processes/flooding_consensus.h"
#include "processes/relay_consensus.h"

namespace boosting::analysis {
namespace {

std::unique_ptr<ioa::System> makeFixture(const std::string& name) {
  const auto policy = services::DummyPolicy::PreferDummy;
  if (name == "relay3") {
    processes::RelaySystemSpec spec;
    spec.processCount = 3;
    spec.objectResilience = 1;
    spec.policy = policy;
    return processes::buildRelayConsensusSystem(spec);
  }
  if (name == "relay4") {
    processes::RelaySystemSpec spec;
    spec.processCount = 4;
    spec.objectResilience = 1;
    spec.policy = policy;
    return processes::buildRelayConsensusSystem(spec);
  }
  if (name == "bridge3") {
    processes::BridgeSystemSpec spec;
    spec.processCount = 3;
    spec.policy = policy;
    return processes::buildBridgeConsensusSystem(spec);
  }
  processes::FloodingConsensusSpec spec;  // "flooding3"
  spec.processCount = 3;
  spec.channelResilience = 0;
  spec.policy = policy;
  return processes::buildFloodingConsensusSystem(spec);
}

// Deterministic splitmix64: the replayable seed IS the test's only input.
std::uint64_t mix(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4568bull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// Collect reachable states from every canonical initialization by plain
// BFS over the FULL transition relation (no symmetry, no POR): the oracle
// must be independent of the machinery under test.
std::vector<ioa::SystemState> reachableSample(const ioa::System& sys,
                                              std::size_t cap) {
  StateGraph g(sys);
  std::deque<NodeId> frontier;
  std::vector<char> queued;
  auto enqueue = [&](NodeId id) {
    if (id >= queued.size()) queued.resize(id + 1, 0);
    if (queued[id]) return;
    queued[id] = 1;
    frontier.push_back(id);
  };
  for (int ones = 0; ones <= sys.processCount(); ++ones) {
    enqueue(g.intern(canonicalInitialization(sys, ones)));
  }
  while (!frontier.empty() && g.size() < cap) {
    const NodeId id = frontier.front();
    frontier.pop_front();
    for (const EdgeView e : g.successors(id)) enqueue(e.to);
  }
  std::vector<ioa::SystemState> out;
  out.reserve(g.size());
  for (NodeId id = 0; id < g.size(); ++id) out.push_back(g.state(id));
  return out;
}

void checkIndependenceAt(const ioa::System& sys, const PorPolicy& por,
                         const ioa::SystemState& s, const std::string& ctx) {
  const std::vector<ioa::TaskId>& tasks = sys.allTasks();
  std::vector<std::optional<ioa::Action>> acts(tasks.size());
  std::vector<const ioa::Action*> ptrs(tasks.size(), nullptr);
  for (std::size_t ti = 0; ti < tasks.size(); ++ti) {
    acts[ti] = sys.enabled(s, tasks[ti]);
    if (acts[ti]) ptrs[ti] = &*acts[ti];
  }
  std::uint64_t enabledMask = 0;
  const std::uint64_t ample = por.ampleMask(ptrs, &enabledMask);
  ASSERT_EQ(ample & ~enabledMask, 0u) << ctx << ": ample not subset";
  if (ample == enabledMask) return;  // full expansion claims nothing
  ASSERT_NE(ample, 0u) << ctx << ": C0 violated (empty ample)";

  for (std::size_t ai = 0; ai < tasks.size(); ++ai) {
    if (((ample >> ai) & 1u) == 0) continue;
    // C2: a proper ample set never postpones a decide.
    EXPECT_NE(acts[ai]->kind, ioa::ActionKind::EnvDecide)
        << ctx << ": decide in proper ample set";
    const ioa::SystemState sa = sys.apply(s, *acts[ai]);
    for (std::size_t bi = 0; bi < tasks.size(); ++bi) {
      if (((enabledMask >> bi) & 1u) == 0 || ((ample >> bi) & 1u) != 0) {
        continue;
      }
      const std::string pair = ctx + ": ample " + tasks[ai].str() +
                               " vs enabled " + tasks[bi].str();
      // (1) the diamond closes: each step stays enabled after the other.
      const std::optional<ioa::Action> bAfterA = sys.enabled(sa, tasks[bi]);
      ASSERT_TRUE(bAfterA) << pair << ": ample step disabled the other";
      const ioa::SystemState sb = sys.apply(s, *acts[bi]);
      const std::optional<ioa::Action> aAfterB = sys.enabled(sb, tasks[ai]);
      ASSERT_TRUE(aAfterB) << pair << ": non-ample step disabled ample";
      // (2) both orders commute to the identical state.
      const ioa::SystemState sab = sys.apply(sa, *bAfterA);
      const ioa::SystemState sba = sys.apply(sb, *aAfterB);
      ASSERT_TRUE(sab.equals(sba)) << pair << ": orders do not commute";
    }
  }
}

TEST(PorIndependenceFuzz, SampledReachableStatesCommute) {
  const std::vector<std::string> fixtures = {"relay3", "relay4", "bridge3",
                                             "flooding3"};
  for (const std::string& name : fixtures) {
    auto sys = makeFixture(name);
    const auto por = PorPolicy::forSystem(*sys, PorMode::On);
    ASSERT_FALSE(por->trivial())
        << name << ": " << por->disabledReason();
    const std::vector<ioa::SystemState> states =
        reachableSample(*sys, /*cap=*/1500);
    ASSERT_FALSE(states.empty());
    // Deterministic sample of ~160 states per fixture; the (seed, index)
    // pair printed on failure replays the exact state.
    const std::uint64_t seed = 0xb0057ull;
    std::uint64_t rng = seed;
    const std::size_t draws = std::min<std::size_t>(160, states.size());
    for (std::size_t k = 0; k < draws; ++k) {
      const std::size_t idx = mix(rng) % states.size();
      const std::string ctx = name + " seed=" + std::to_string(seed) +
                              " draw=" + std::to_string(k) +
                              " state=" + std::to_string(idx);
      checkIndependenceAt(*sys, *por, states[idx], ctx);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(PorIndependenceFuzz, AmpleDecisionIsAPureFunctionOfTheState) {
  // The memoized decision must be stable across repeated queries (eager
  // and lazy exploration rely on this to build the same reduced graph).
  auto sys = makeFixture("relay3");
  const auto por = PorPolicy::forSystem(*sys, PorMode::On);
  ASSERT_FALSE(por->trivial());
  const std::vector<ioa::SystemState> states = reachableSample(*sys, 400);
  const std::vector<ioa::TaskId>& tasks = sys->allTasks();
  for (std::size_t idx = 0; idx < states.size(); idx += 7) {
    std::vector<std::optional<ioa::Action>> acts(tasks.size());
    std::vector<const ioa::Action*> ptrs(tasks.size(), nullptr);
    for (std::size_t ti = 0; ti < tasks.size(); ++ti) {
      acts[ti] = sys->enabled(states[idx], tasks[ti]);
      if (acts[ti]) ptrs[ti] = &*acts[ti];
    }
    std::uint64_t e1 = 0, e2 = 0;
    const std::uint64_t m1 = por->ampleMask(ptrs, &e1);
    const std::uint64_t m2 = por->ampleMask(ptrs, &e2);
    EXPECT_EQ(m1, m2) << "state " << idx;
    EXPECT_EQ(e1, e2) << "state " << idx;
  }
}

}  // namespace
}  // namespace boosting::analysis
