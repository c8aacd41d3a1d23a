// Property/fuzz suite for orbit canonicalization: on random reachable
// states of the symmetric fixtures, canon must be (a) permutation-
// invariant -- canon(relabel(s, pi)) == canon(s) for every pi -- and
// (b) idempotent, while the transition function stays equivariant under
// relabeling (the assumption the quotient's soundness rests on). The
// colour order the canonical form sorts by is checked directly: a tie
// between two endpoints means their transposition fixes the state, and
// the order moves with relabeling. The walks fill buffers and inject
// failures so every part of an endpoint's colour varies. Runs under the
// TSan job via analysis_tests like the other fuzz suites.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <vector>

#include "analysis/bivalence.h"
#include "analysis/symmetry.h"
#include "processes/relay_consensus.h"
#include "util/rng.h"

namespace boosting::analysis {
namespace {

std::unique_ptr<ioa::System> relayFixture(int n, int f) {
  processes::RelaySystemSpec spec;
  spec.processCount = n;
  spec.objectResilience = f;
  spec.policy = services::DummyPolicy::PreferDummy;
  return processes::buildRelayConsensusSystem(spec);
}

ioa::SystemState canonOf(const SymmetryPolicy& pol,
                         const ioa::SystemState& s) {
  if (auto c = pol.canonicalize(s)) return std::move(c->state);
  return s;
}

std::vector<int> randomPerm(util::Rng& rng, int n) {
  std::vector<int> p(static_cast<std::size_t>(n));
  std::iota(p.begin(), p.end(), 0);
  for (int i = n - 1; i > 0; --i) {
    const int j = static_cast<int>(rng.nextBelow(
        static_cast<std::uint64_t>(i) + 1));
    std::swap(p[static_cast<std::size_t>(i)], p[static_cast<std::size_t>(j)]);
  }
  return p;
}

std::vector<std::vector<int>> allPerms(int n) {
  std::vector<std::vector<int>> out;
  std::vector<int> p = SymmetryPolicy::identityPerm(n);
  do {
    out.push_back(p);
  } while (std::next_permutation(p.begin(), p.end()));
  return out;
}

std::vector<int> transposition(int n, int i, int j) {
  std::vector<int> p = SymmetryPolicy::identityPerm(n);
  std::swap(p[static_cast<std::size_t>(i)], p[static_cast<std::size_t>(j)]);
  return p;
}

int sign(int c) { return (c > 0) - (c < 0); }

// Random fair-ish walk: sample reachable states by repeatedly firing a
// uniformly chosen enabled task from a random canonical initialization.
// About one step in twelve fails a random process instead (at most n - 1
// of them), so failed sets vary and silenced services leave their buffers
// full.
std::vector<ioa::SystemState> sampleStates(const ioa::System& sys,
                                           util::Rng& rng, int walks,
                                           int stepsPerWalk) {
  std::vector<ioa::SystemState> out;
  const int n = sys.processCount();
  const auto& tasks = sys.allTasks();
  for (int w = 0; w < walks; ++w) {
    const int ones = static_cast<int>(
        rng.nextBelow(static_cast<std::uint64_t>(n) + 1));
    ioa::SystemState s = canonicalInitialization(sys, ones);
    out.push_back(s);
    int failures = 0;
    for (int step = 0; step < stepsPerWalk; ++step) {
      if (failures < n - 1 && rng.nextBelow(12) == 0) {
        sys.injectFail(s, static_cast<int>(
                              rng.nextBelow(static_cast<std::uint64_t>(n))));
        ++failures;
        out.push_back(s);
        continue;
      }
      // Reservoir-pick one enabled task uniformly.
      std::optional<ioa::Action> pick;
      std::uint64_t seen = 0;
      for (const ioa::TaskId& t : tasks) {
        if (auto a = sys.enabled(s, t)) {
          ++seen;
          if (rng.nextBelow(seen) == 0) pick = std::move(a);
        }
      }
      if (!pick) break;
      sys.applyInPlace(s, *pick);
      out.push_back(s);
    }
  }
  return out;
}

// Checks canon(relabel(s, pi)) == canon(s) for each pi, plus idempotence
// and the reported permutation.
void checkCanonProperties(const SymmetryPolicy& pol,
                          const std::vector<ioa::SystemState>& states,
                          const auto& permsFor) {
  ASSERT_FALSE(states.empty());
  for (const ioa::SystemState& s : states) {
    const ioa::SystemState canon = canonOf(pol, s);
    // Idempotence: a representative canonicalizes to itself.
    EXPECT_FALSE(pol.canonicalize(canon).has_value())
        << "canon not idempotent at\n" << s.str();
    // The reported permutation really maps the input to the output, and
    // the COW hash cache survives the relabeling machinery intact.
    if (auto c = pol.canonicalize(s)) {
      EXPECT_FALSE(c->state.equals(s)) << "collapse returned its input";
      EXPECT_TRUE(c->state.equals(pol.relabeled(s, c->perm)))
          << "CanonResult.perm inconsistent at\n" << s.str();
    }
    EXPECT_EQ(canon.hash(), canon.fullRehash());
    // Orbit invariance: every relabeling lands on the same representative.
    for (const std::vector<int>& pi : permsFor()) {
      const ioa::SystemState relabeled = pol.relabeled(s, pi);
      EXPECT_TRUE(canonOf(pol, relabeled).equals(canon))
          << "canon(relabel(s, pi)) != canon(s) at\n" << s.str();
    }
  }
}

void checkEveryPerm(int n, int f, std::uint64_t seed) {
  SCOPED_TRACE("relay n=" + std::to_string(n) + " f=" + std::to_string(f));
  auto sys = relayFixture(n, f);
  auto pol = SymmetryPolicy::forSystem(*sys, SymmetryMode::On);
  ASSERT_FALSE(pol->trivial()) << pol->disabledReason();
  util::Rng rng(seed);
  const auto perms = allPerms(n);
  checkCanonProperties(*pol, sampleStates(*sys, rng, 8, 24),
                       [&]() -> const auto& { return perms; });
}

void checkRandomPerms(int n, int f, std::uint64_t seed, int permsPerState) {
  SCOPED_TRACE("relay n=" + std::to_string(n) + " f=" + std::to_string(f));
  auto sys = relayFixture(n, f);
  auto pol = SymmetryPolicy::forSystem(*sys, SymmetryMode::On);
  ASSERT_FALSE(pol->trivial()) << pol->disabledReason();
  util::Rng rng(seed);
  checkCanonProperties(*pol, sampleStates(*sys, rng, 8, 32), [&] {
    std::vector<std::vector<int>> out;
    for (int k = 0; k < permsPerState; ++k) out.push_back(randomPerm(rng, n));
    return out;
  });
}

// The separability contract of Automaton::compareEndpointViews, per service
// slot: antisymmetry, a tie exactly when the transposition fixes the
// component state, and equivariance under relabeling. At the level of the
// whole state: two endpoints of equal colour are swapped without changing
// the state.
void checkColourOrder(const ioa::System& sys, const SymmetryPolicy& pol,
                      util::Rng& rng) {
  const int n = sys.processCount();
  const std::size_t slots = sys.initialState().partCount();
  for (const ioa::SystemState& s : sampleStates(sys, rng, 8, 32)) {
    const std::vector<int> pi = randomPerm(rng, n);
    const ioa::SystemState sp = pol.relabeled(s, pi);
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        bool colourTie =
            s.part(sys.slotForProcess(i)).equals(s.part(sys.slotForProcess(j)));
        for (std::size_t k = static_cast<std::size_t>(n); k < slots; ++k) {
          const ioa::Automaton& svc = sys.componentAtSlot(k);
          const int c = svc.compareEndpointViews(s.part(k), i, j);
          EXPECT_EQ(sign(c), -sign(svc.compareEndpointViews(s.part(k), j, i)))
              << "not antisymmetric at slot " << k;
          EXPECT_EQ(c == 0, svc.relabeledState(s.part(k),
                                               transposition(n, i, j))
                                ->equals(s.part(k)))
              << "tie at slot " << k << " disagrees with the transposition ("
              << i << " " << j << ") at\n" << s.str();
          EXPECT_EQ(sign(svc.compareEndpointViews(
                        sp.part(k), pi[static_cast<std::size_t>(i)],
                        pi[static_cast<std::size_t>(j)])),
                    sign(c))
              << "colour order does not move with relabeling at slot " << k;
          colourTie = colourTie && c == 0;
        }
        if (colourTie) {
          EXPECT_TRUE(pol.relabeled(s, transposition(n, i, j)).equals(s))
              << "endpoints " << i << " and " << j
              << " tie but their transposition moves\n" << s.str();
        }
      }
    }
  }
}

TEST(SymmetryCanonFuzz, RelayN3EveryPerm) {
  checkEveryPerm(3, 0, 0x5e1f5e1f5e1f5e1full);
  checkEveryPerm(3, 1, 0x3c3c3c3c3c3c3c3cull);
}

TEST(SymmetryCanonFuzz, RelayN4EveryPerm) {
  checkEveryPerm(4, 0, 0xfeedc0defeedc0deull);
  checkEveryPerm(4, 1, 0x0ddba11c0ffee000ull);
  checkEveryPerm(4, 2, 0x1234567812345678ull);
}

TEST(SymmetryCanonFuzz, RelayN5RandomPerms) {
  checkRandomPerms(5, 1, 0xa5a5a5a5a5a5a5a5ull, 8);
  checkRandomPerms(5, 3, 0x5a5a5a5a5a5a5a5aull, 8);
}

TEST(SymmetryCanonFuzz, RelayN6RandomPerms) {
  checkRandomPerms(6, 1, 0x6666666666666666ull, 8);
  checkRandomPerms(6, 2, 0x9999999999999999ull, 8);
}

TEST(SymmetryCanonFuzz, ColourOrderContract) {
  for (const auto& [n, f] : {std::pair{3, 1}, std::pair{4, 2},
                             std::pair{5, 1}}) {
    SCOPED_TRACE("relay n=" + std::to_string(n) + " f=" + std::to_string(f));
    auto sys = relayFixture(n, f);
    auto pol = SymmetryPolicy::forSystem(*sys, SymmetryMode::On);
    ASSERT_FALSE(pol->trivial()) << pol->disabledReason();
    util::Rng rng(0xc01005eedull + static_cast<std::uint64_t>(n));
    checkColourOrder(*sys, *pol, rng);
  }
}

// Equivariance spot-check: relabel-then-step equals step-then-relabel.
// This is assumption (a)-(c) of analysis/symmetry.h, the load-bearing
// fact behind quotient soundness.
TEST(SymmetryCanonFuzz, RelayEquivariance) {
  for (int f : {0, 1}) {
    auto sys = relayFixture(3, f);
    auto pol = SymmetryPolicy::forSystem(*sys, SymmetryMode::On);
    ASSERT_FALSE(pol->trivial());
    util::Rng rng(0xabcdef0123456789ull + static_cast<std::uint64_t>(f));
    for (const ioa::SystemState& s : sampleStates(*sys, rng, 4, 16)) {
      const std::vector<int> pi = randomPerm(rng, sys->processCount());
      const ioa::SystemState sp = pol->relabeled(s, pi);
      for (const ioa::TaskId& t : sys->allTasks()) {
        const auto a = sys->enabled(s, t);
        if (!a) continue;
        const ioa::Action ap = pol->relabelAction(*a, pi);
        const ioa::SystemState left = pol->relabeled(sys->apply(s, *a), pi);
        const ioa::SystemState right = sys->apply(sp, ap);
        EXPECT_TRUE(left.equals(right))
            << "equivariance broken for " << a->str() << " under relabeling";
      }
    }
  }
}

TEST(SymmetryCanonFuzz, PermAlgebra) {
  util::Rng rng(42);
  for (int n : {1, 2, 3, 5, 7}) {
    for (int k = 0; k < 16; ++k) {
      const auto p = randomPerm(rng, n);
      const auto q = randomPerm(rng, n);
      EXPECT_TRUE(SymmetryPolicy::isIdentity(
          SymmetryPolicy::composePerm(SymmetryPolicy::invertPerm(p), p)));
      EXPECT_TRUE(SymmetryPolicy::isIdentity(
          SymmetryPolicy::composePerm(p, SymmetryPolicy::invertPerm(p))));
      // (p o q)^{-1} == q^{-1} o p^{-1}.
      EXPECT_EQ(SymmetryPolicy::invertPerm(SymmetryPolicy::composePerm(p, q)),
                SymmetryPolicy::composePerm(SymmetryPolicy::invertPerm(q),
                                            SymmetryPolicy::invertPerm(p)));
    }
    EXPECT_TRUE(SymmetryPolicy::isIdentity(SymmetryPolicy::identityPerm(n)));
  }
}

}  // namespace
}  // namespace boosting::analysis
