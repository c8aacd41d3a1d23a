// Explorer fuzzing: seeded random systems (script clients over a random
// built-in sequential type with small domains) explored by
// exploreReachable and checked against an oracle BFS that calls
// System::enabled/apply directly -- no transition memo, no slot
// canonicalization, no interning. The comparison is the sorted multiset of
// state hashes, a numbering-free fingerprint of the reachable set. Each
// case additionally draws a (symmetry x por) reduction config from its
// seed: the quotient must reach exactly the orbit representatives of the
// unreduced set, and an ample-set reduction only a subset of it, cell by
// cell of that matrix, including the cells where a policy inspects the
// random system and declines.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/parallel_explorer.h"
#include "analysis/por.h"
#include "analysis/state_graph.h"
#include "analysis/symmetry.h"
#include "processes/script_client.h"
#include "services/canonical_atomic.h"
#include "types/builtin_types.h"
#include "util/rng.h"

namespace boosting::analysis {
namespace {

using processes::ScriptClientProcess;
using services::CanonicalAtomicObject;
using util::Value;

constexpr int kServiceId = 7;

struct FuzzCase {
  std::uint64_t seed;
  int clients;
  int opsPerClient;
  bool symmetry = false;
  bool por = false;
};

types::SequentialType randomType(util::Rng& rng) {
  switch (rng.nextBelow(7)) {
    case 0: return types::registerType();
    case 1: return types::binaryConsensusType();
    case 2: return types::testAndSetType();
    case 3: return types::compareAndSwapType();
    case 4: return types::counterType();
    case 5: return types::fetchAddType();
    default: return types::queueType();
  }
}

// A random small system: `clients` script clients driving one canonical
// atomic object of a random type with random short scripts.
std::unique_ptr<ioa::System> randomSystem(std::uint64_t seed, int clients,
                                          int opsPerClient) {
  util::Rng rng(seed);
  const types::SequentialType type = randomType(rng);
  auto sys = std::make_unique<ioa::System>();
  for (int i = 0; i < clients; ++i) {
    std::vector<Value> script;
    for (int k = 0; k < opsPerClient; ++k) {
      const auto& samples = type.sampleInvocations;
      script.push_back(samples[rng.nextBelow(samples.size())]);
    }
    const int depth = 1 + static_cast<int>(rng.nextBelow(2));
    sys->addProcess(std::make_shared<ScriptClientProcess>(
        i, kServiceId, std::move(script), depth));
  }
  std::vector<int> all;
  for (int i = 0; i < clients; ++i) all.push_back(i);
  services::CanonicalAtomicObject::Options opts;
  opts.policy = services::DummyPolicy::PreferDummy;
  const int resilience = static_cast<int>(rng.nextBelow(clients));
  auto obj = std::make_shared<CanonicalAtomicObject>(type, kServiceId, all,
                                                     resilience, opts);
  sys->addService(obj, obj->meta());
  return sys;
}

std::vector<std::size_t> sortedStateHashes(const StateGraph& g) {
  std::vector<std::size_t> hashes;
  hashes.reserve(g.size());
  for (NodeId id = 0; id < g.size(); ++id) hashes.push_back(g.state(id).hash());
  std::sort(hashes.begin(), hashes.end());
  return hashes;
}

// Every state reachable from `root` by the unreduced successor relation,
// computed from first principles; sorted state hashes.
std::vector<std::size_t> oracleReachableHashes(const ioa::System& sys,
                                               const ioa::SystemState& root) {
  std::vector<ioa::SystemState> states{root};
  std::unordered_multimap<std::size_t, std::size_t> byHash{
      {states[0].hash(), 0}};
  std::deque<std::size_t> frontier{0};
  while (!frontier.empty()) {
    const std::size_t k = frontier.front();
    frontier.pop_front();
    for (const ioa::TaskId& t : sys.allTasks()) {
      const auto a = sys.enabled(states[k], t);
      if (!a) continue;
      ioa::SystemState next = sys.apply(states[k], *a);
      const std::size_t h = next.hash();
      const auto [lo, hi] = byHash.equal_range(h);
      const bool seen = std::any_of(lo, hi, [&](const auto& e) {
        return states[e.second].equals(next);
      });
      if (seen) continue;
      byHash.emplace(h, states.size());
      frontier.push_back(states.size());
      states.push_back(std::move(next));
    }
  }
  std::vector<std::size_t> hashes;
  hashes.reserve(states.size());
  for (const ioa::SystemState& s : states) hashes.push_back(s.hash());
  std::sort(hashes.begin(), hashes.end());
  return hashes;
}

// The oracle costs ~5x the engine per state. Past this many states the
// unreduced engine graph, oracle-checked on every smaller case, is the
// reference for the reduced cells.
constexpr std::size_t kOracleMaxStates = 250000;

class ExplorerFuzz : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(ExplorerFuzz, ReachableSetMatchesOracle) {
  const FuzzCase& c = GetParam();
  auto sys = randomSystem(c.seed, c.clients, c.opsPerClient);

  StateGraph full(*sys);
  const ExploreStats fullStats =
      exploreReachable(full, full.intern(sys->initialState()));
  EXPECT_FALSE(fullStats.truncated);
  EXPECT_EQ(fullStats.statesDiscovered, full.size()) << "seed=" << c.seed;
  std::string why;
  EXPECT_TRUE(full.checkConsistent(&why)) << "seed=" << c.seed << ": " << why;
  if (full.size() <= kOracleMaxStates) {
    EXPECT_EQ(sortedStateHashes(full),
              oracleReachableHashes(*sys, sys->initialState()))
        << "seed=" << c.seed;
  }
  if (!c.symmetry && !c.por) return;

  const auto sym = SymmetryPolicy::forSystem(
      *sys, c.symmetry ? SymmetryMode::On : SymmetryMode::Off);
  StateGraph g(*sys, sym,
               PorPolicy::forSystem(*sys, c.por ? PorMode::On : PorMode::Off));
  const ExploreStats stats = exploreReachable(g, g.intern(sys->initialState()));
  EXPECT_FALSE(stats.truncated);
  EXPECT_EQ(stats.statesDiscovered, g.size()) << "seed=" << c.seed;
  EXPECT_TRUE(g.checkConsistent(&why)) << "seed=" << c.seed << ": " << why;

  // The unreduced set, mapped to orbit representatives when the quotient
  // is active (symmetry preserves reachability, so the quotient graph
  // holds exactly one representative per reachable orbit).
  std::vector<std::size_t> want;
  want.reserve(full.size());
  for (NodeId id = 0; id < full.size(); ++id) {
    const ioa::SystemState& s = full.state(id);
    const auto canon =
        g.symmetryActive() ? sym->canonicalize(s) : std::nullopt;
    want.push_back(canon ? canon->state.hash() : s.hash());
  }
  std::sort(want.begin(), want.end());
  want.erase(std::unique(want.begin(), want.end()), want.end());
  const std::vector<std::size_t> got = sortedStateHashes(g);

  if (!g.porActive()) {
    EXPECT_EQ(got, want) << "seed=" << c.seed;
    return;
  }
  // An ample-set reduction explores a subset of the reachable states.
  EXPECT_LE(got.size(), want.size()) << "seed=" << c.seed;
  EXPECT_TRUE(std::includes(want.begin(), want.end(), got.begin(), got.end()))
      << "seed=" << c.seed << ": the reduced graph reached a state the "
      << "unreduced one did not";
}

std::vector<FuzzCase> fuzzCases() {
  std::vector<FuzzCase> cases;
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    const int clients = 2 + static_cast<int>(seed % 2);
    const int ops = 2 + static_cast<int>(seed % 3);
    cases.push_back({seed, clients, ops});
    cases.push_back({seed + 1000, clients, ops});
    // Reduction matrix drawn from the seed: the same random system under
    // symmetry and/or POR.
    cases.push_back({seed, clients, ops, (seed % 3) == 1, true});
    cases.push_back({seed + 2000, clients, ops, (seed % 2) == 0,
                     (seed % 2) == 1});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(RandomSystems, ExplorerFuzz,
                         ::testing::ValuesIn(fuzzCases()));

}  // namespace
}  // namespace boosting::analysis
