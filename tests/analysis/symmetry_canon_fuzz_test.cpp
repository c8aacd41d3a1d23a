// Property/fuzz suite for orbit canonicalization: on random reachable
// states of the symmetric fixtures, canon must be (a) permutation-
// invariant -- canon(relabel(s, pi)) == canon(s) for every pi -- and
// (b) idempotent, while the transition function stays equivariant under
// relabeling (the assumption the quotient's soundness rests on). Runs
// under the TSan job via analysis_tests like the other fuzz suites.
#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <vector>

#include "analysis/bivalence.h"
#include "analysis/symmetry.h"
#include "processes/relay_consensus.h"
#include "util/rng.h"

namespace boosting::analysis {
namespace {

std::unique_ptr<ioa::System> relayFixture(int n) {
  processes::RelaySystemSpec spec;
  spec.processCount = n;
  spec.objectResilience = 0;
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

// Random fair-ish walk: sample reachable states by repeatedly firing a
// uniformly chosen enabled task from a random canonical initialization.
std::vector<ioa::SystemState> sampleStates(const ioa::System& sys,
                                           util::Rng& rng, int walks,
                                           int stepsPerWalk) {
  std::vector<ioa::SystemState> out;
  const auto& tasks = sys.allTasks();
  for (int w = 0; w < walks; ++w) {
    const int ones = static_cast<int>(
        rng.nextBelow(static_cast<std::uint64_t>(sys.processCount()) + 1));
    ioa::SystemState s = canonicalInitialization(sys, ones);
    out.push_back(s);
    for (int step = 0; step < stepsPerWalk; ++step) {
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

void checkCanonProperties(const ioa::System& sys, const SymmetryPolicy& pol,
                          util::Rng& rng, int permsPerState) {
  const auto states = sampleStates(sys, rng, /*walks=*/8, /*stepsPerWalk=*/20);
  ASSERT_FALSE(states.empty());
  for (const ioa::SystemState& s : states) {
    const ioa::SystemState canon = canonOf(pol, s);
    // Idempotence: a representative canonicalizes to itself.
    const auto again = pol.canonicalize(canon);
    if (again) {
      EXPECT_TRUE(again->state.equals(canon))
          << "canon not idempotent at\n" << s.str();
    }
    // The reported permutation really maps the input to the output, and
    // the COW hash cache survives the relabeling machinery intact.
    if (auto c = pol.canonicalize(s)) {
      EXPECT_TRUE(c->state.equals(pol.relabeled(s, c->perm)))
          << "CanonResult.perm inconsistent at\n" << s.str();
    }
    EXPECT_EQ(canon.hash(), canon.fullRehash());
    // Orbit invariance: every relabeling lands on the same representative.
    for (int k = 0; k < permsPerState; ++k) {
      const std::vector<int> pi = randomPerm(rng, sys.processCount());
      const ioa::SystemState relabeled = pol.relabeled(s, pi);
      EXPECT_TRUE(canonOf(pol, relabeled).equals(canon))
          << "canon(relabel(s, pi)) != canon(s) at\n" << s.str();
    }
  }
}

// Equivariance spot-check: relabel-then-step equals step-then-relabel.
// This is assumption (a)-(c) of analysis/symmetry.h, the load-bearing
// fact behind quotient soundness.
void checkEquivariance(const ioa::System& sys, const SymmetryPolicy& pol,
                       util::Rng& rng) {
  const auto states = sampleStates(sys, rng, /*walks=*/4, /*stepsPerWalk=*/12);
  for (const ioa::SystemState& s : states) {
    const std::vector<int> pi = randomPerm(rng, sys.processCount());
    const ioa::SystemState sp = pol.relabeled(s, pi);
    for (const ioa::TaskId& t : sys.allTasks()) {
      const auto a = sys.enabled(s, t);
      if (!a) continue;
      const ioa::Action ap = pol.relabelAction(*a, pi);
      const ioa::SystemState left = pol.relabeled(sys.apply(s, *a), pi);
      const ioa::SystemState right = sys.apply(sp, ap);
      EXPECT_TRUE(left.equals(right))
          << "equivariance broken for " << a->str() << " under relabeling";
    }
  }
}

TEST(SymmetryCanonFuzz, RelayN3IdFree) {
  auto sys = relayFixture(3);
  auto pol = SymmetryPolicy::forSystem(*sys, SymmetryMode::On);
  ASSERT_FALSE(pol->trivial()) << pol->disabledReason();
  util::Rng rng(0x5e1f5e1f5e1f5e1full);
  checkCanonProperties(*sys, *pol, rng, /*permsPerState=*/4);
}

TEST(SymmetryCanonFuzz, RelayN4IdFree) {
  auto sys = relayFixture(4);
  auto pol = SymmetryPolicy::forSystem(*sys, SymmetryMode::On);
  ASSERT_FALSE(pol->trivial()) << pol->disabledReason();
  util::Rng rng(0xfeedc0defeedc0deull);
  checkCanonProperties(*sys, *pol, rng, /*permsPerState=*/3);
}

TEST(SymmetryCanonFuzz, RelayEquivariance) {
  auto sys = relayFixture(3);
  auto pol = SymmetryPolicy::forSystem(*sys, SymmetryMode::On);
  ASSERT_FALSE(pol->trivial());
  util::Rng rng(0xabcdef0123456789ull);
  checkEquivariance(*sys, *pol, rng);
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
