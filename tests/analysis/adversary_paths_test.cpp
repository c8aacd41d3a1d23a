// The adversary engine's non-hook verdict paths, exercised by purpose-built
// broken candidates:
//   * a protocol that decides its own input -> failure-free AGREEMENT
//     violation caught by the exhaustive safety scan (step 1);
//   * a protocol that decides a constant    -> VALIDITY violation;
//   * a protocol that never decides         -> Null-valent initialization,
//     certified failure-free termination violation (step 2);
//   * the memoized scan (firstUnsafeNode) flags the node a brute
//     nodeSafetyViolation loop flags first.
#include <gtest/gtest.h>

#include "analysis/adversary.h"
#include "processes/process.h"
#include "services/register.h"

namespace boosting::analysis {
namespace {

using ioa::Action;
using util::sym;
using util::Value;

// Minimal process state: the base fields plus a "decided" latch.
class LatchState final : public processes::ProcessStateBase {
 public:
  bool emitted = false;

  std::unique_ptr<ioa::AutomatonState> clone() const override {
    return std::make_unique<LatchState>(*this);
  }
  std::size_t hash() const override {
    std::size_t h = baseHash();
    util::hashValue(h, emitted);
    return h;
  }
  bool equals(const ioa::AutomatonState& other) const override {
    const auto* o = dynamic_cast<const LatchState*>(&other);
    return o != nullptr && baseEquals(*o) && emitted == o->emitted;
  }
  std::string str() const override {
    return std::string("latch") + (emitted ? " emitted" : "") + baseStr();
  }
};

// Decides its own input immediately: agreement breaks on mixed inputs.
class DecideOwnInputProcess final : public processes::ProcessBase {
 public:
  using ProcessBase::ProcessBase;
  std::string name() const override {
    return "P" + std::to_string(endpoint()) + "<own-input>";
  }
  std::unique_ptr<ioa::AutomatonState> initialState() const override {
    return std::make_unique<LatchState>();
  }

 protected:
  Action chooseAction(const processes::ProcessStateBase& s) const override {
    const auto& st = dynamic_cast<const LatchState&>(s);
    if (!st.input.isNil() && !st.emitted) {
      return Action::envDecide(endpoint(), sym("decide", st.input));
    }
    return Action::procDummy(endpoint());
  }
  void onRespond(processes::ProcessStateBase&, int,
                 const Value&) const override {}
  void onLocal(processes::ProcessStateBase& s, const Action& a) const override {
    if (a.kind == ioa::ActionKind::EnvDecide) {
      dynamic_cast<LatchState&>(s).emitted = true;
    }
  }
};

// Decides the constant 7, which nobody proposed: validity breaks.
class DecideConstantProcess final : public processes::ProcessBase {
 public:
  using ProcessBase::ProcessBase;
  std::string name() const override {
    return "P" + std::to_string(endpoint()) + "<constant>";
  }
  std::unique_ptr<ioa::AutomatonState> initialState() const override {
    return std::make_unique<LatchState>();
  }

 protected:
  Action chooseAction(const processes::ProcessStateBase& s) const override {
    const auto& st = dynamic_cast<const LatchState&>(s);
    if (!st.input.isNil() && !st.emitted) {
      return Action::envDecide(endpoint(), sym("decide", 7));
    }
    return Action::procDummy(endpoint());
  }
  void onRespond(processes::ProcessStateBase&, int,
                 const Value&) const override {}
  void onLocal(processes::ProcessStateBase& s, const Action& a) const override {
    if (a.kind == ioa::ActionKind::EnvDecide) {
      dynamic_cast<LatchState&>(s).emitted = true;
    }
  }
};

// Never decides at all.
class SilentProcess final : public processes::ProcessBase {
 public:
  using ProcessBase::ProcessBase;
  std::string name() const override {
    return "P" + std::to_string(endpoint()) + "<silent>";
  }
  std::unique_ptr<ioa::AutomatonState> initialState() const override {
    return std::make_unique<LatchState>();
  }

 protected:
  Action chooseAction(const processes::ProcessStateBase&) const override {
    return Action::procDummy(endpoint());
  }
  void onRespond(processes::ProcessStateBase&, int,
                 const Value&) const override {}
  void onLocal(processes::ProcessStateBase&, const Action&) const override {}
};

template <typename P>
std::unique_ptr<ioa::System> makeSystem(int n) {
  auto sys = std::make_unique<ioa::System>();
  std::vector<int> all;
  for (int i = 0; i < n; ++i) {
    all.push_back(i);
    sys->addProcess(std::make_shared<P>(i));
  }
  // A scratch register so the system has at least one service (the
  // theorems' setting); the processes ignore it.
  auto reg = std::make_shared<services::CanonicalRegister>(200, all);
  sys->addService(reg, reg->meta());
  return sys;
}

TEST(AdversaryPaths, AgreementViolationCaughtBySafetyScan) {
  auto sys = makeSystem<DecideOwnInputProcess>(2);
  AdversaryConfig cfg;
  cfg.claimedFailures = 1;
  auto report = analyzeConsensusCandidate(*sys, cfg);
  EXPECT_EQ(report.verdict, AdversaryReport::Verdict::SafetyViolation)
      << report.summary();
  EXPECT_NE(report.narrative.find("agreement"), std::string::npos);
  EXPECT_TRUE(report.witnessIsFailureFree());
  EXPECT_FALSE(report.witness.empty());
}

TEST(AdversaryPaths, AgreementWitnessReplays) {
  auto sys = makeSystem<DecideOwnInputProcess>(2);
  AdversaryConfig cfg;
  cfg.claimedFailures = 1;
  auto report = analyzeConsensusCandidate(*sys, cfg);
  ASSERT_EQ(report.verdict, AdversaryReport::Verdict::SafetyViolation);
  // Replaying the witness reaches a state with two different decisions.
  ioa::SystemState s = sys->initialState();
  for (const Action& a : report.witness.actions()) sys->applyInPlace(s, a);
  const auto& p0 = processes::ProcessBase::stateOf(s.part(0));
  const auto& p1 = processes::ProcessBase::stateOf(s.part(1));
  ASSERT_FALSE(p0.decision.isNil());
  ASSERT_FALSE(p1.decision.isNil());
  EXPECT_NE(p0.decision, p1.decision);
}

TEST(AdversaryPaths, ValidityViolationCaughtBySafetyScan) {
  auto sys = makeSystem<DecideConstantProcess>(2);
  AdversaryConfig cfg;
  cfg.claimedFailures = 1;
  auto report = analyzeConsensusCandidate(*sys, cfg);
  EXPECT_EQ(report.verdict, AdversaryReport::Verdict::SafetyViolation)
      << report.summary();
  EXPECT_NE(report.narrative.find("validity"), std::string::npos);
}

TEST(AdversaryPaths, NullValentInitializationCertified) {
  auto sys = makeSystem<SilentProcess>(2);
  AdversaryConfig cfg;
  cfg.claimedFailures = 1;
  auto report = analyzeConsensusCandidate(*sys, cfg);
  EXPECT_EQ(report.verdict, AdversaryReport::Verdict::TerminationViolation)
      << report.summary();
  EXPECT_NE(report.narrative.find("Null-valent"), std::string::npos);
  EXPECT_TRUE(report.witnessIsFailureFree());
}

TEST(AdversaryPaths, SilentCandidateInitializationsAllNull) {
  auto sys = makeSystem<SilentProcess>(3);
  StateGraph g(*sys);
  ValenceAnalyzer va(g);
  auto biv = findBivalentInitialization(g, va);
  for (const auto& init : biv.initializations) {
    EXPECT_EQ(init.valence, Valence::Null);
  }
  EXPECT_FALSE(biv.bivalent.has_value());
}

// The first node of `g` nodeSafetyViolation flags, node by node.
NodeId bruteFirstUnsafe(const StateGraph& g) {
  for (NodeId id = 0; id < g.size(); ++id) {
    if (nodeSafetyViolation(g, id)) return id;
  }
  return kNoNode;
}

template <typename P>
void expectScanMatchesBrute(int n, bool expectUnsafe) {
  auto sys = makeSystem<P>(n);
  StateGraph g(*sys);
  ValenceAnalyzer va(g);
  (void)findBivalentInitialization(g, va);
  const NodeId brute = bruteFirstUnsafe(g);
  EXPECT_EQ(brute != kNoNode, expectUnsafe) << "n=" << n;
  EXPECT_EQ(firstUnsafeNode(g), brute) << "n=" << n;
}

TEST(AdversaryPaths, MemoizedScanFlagsTheBruteFirstNode) {
  for (int n = 2; n <= 4; ++n) {
    expectScanMatchesBrute<DecideOwnInputProcess>(n, true);
    expectScanMatchesBrute<DecideConstantProcess>(n, true);
    expectScanMatchesBrute<SilentProcess>(n, false);
  }
}

}  // namespace
}  // namespace boosting::analysis
