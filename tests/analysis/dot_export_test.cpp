// DOT export of G(C): structure, valence colouring, hook highlighting.
#include "analysis/dot_export.h"

#include <gtest/gtest.h>

#include "analysis/bivalence.h"
#include "analysis/por.h"
#include "analysis/symmetry.h"
#include "processes/relay_consensus.h"

namespace boosting::analysis {
namespace {

using processes::buildRelayConsensusSystem;
using processes::RelaySystemSpec;

std::unique_ptr<ioa::System> relay() {
  RelaySystemSpec spec;
  spec.processCount = 2;
  spec.objectResilience = 0;
  spec.addScratchRegister = false;
  return buildRelayConsensusSystem(spec);
}

TEST(DotExport, ProducesWellFormedDigraph) {
  auto sys = relay();
  StateGraph g(*sys);
  ValenceAnalyzer va(g);
  NodeId root = g.intern(canonicalInitialization(*sys, 1));
  std::string dot = exportDot(g, va, root);
  EXPECT_EQ(dot.rfind("digraph GC {", 0), 0u);
  EXPECT_EQ(dot.back(), '\n');
  EXPECT_NE(dot.find("}"), std::string::npos);
  EXPECT_NE(dot.find("n0"), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);
}

TEST(DotExport, ColoursReflectValence) {
  auto sys = relay();
  StateGraph g(*sys);
  ValenceAnalyzer va(g);
  NodeId root = g.intern(canonicalInitialization(*sys, 1));
  std::string dot = exportDot(g, va, root);
  EXPECT_NE(dot.find("khaki"), std::string::npos);      // bivalent nodes
  EXPECT_NE(dot.find("lightblue"), std::string::npos);  // 0-valent nodes
  EXPECT_NE(dot.find("salmon"), std::string::npos);     // 1-valent nodes
}

TEST(DotExport, NodeBudgetRespected) {
  auto sys = relay();
  StateGraph g(*sys);
  ValenceAnalyzer va(g);
  NodeId root = g.intern(canonicalInitialization(*sys, 1));
  DotOptions opts;
  opts.maxNodes = 3;
  std::string dot = exportDot(g, va, root, opts);
  // Count node declaration lines (contain "fillcolor").
  std::size_t count = 0, pos = 0;
  while ((pos = dot.find("fillcolor", pos)) != std::string::npos) {
    ++count;
    ++pos;
  }
  EXPECT_LE(count, 3u);
}

TEST(DotExport, HookEdgesHighlighted) {
  auto sys = relay();
  StateGraph g(*sys);
  ValenceAnalyzer va(g);
  auto biv = findBivalentInitialization(g, va);
  auto outcome = findHook(g, va, biv.bivalent->node);
  ASSERT_TRUE(outcome.hook);
  DotOptions opts;
  opts.maxNodes = 500;
  opts.highlightHook = outcome.hook;
  std::string dot = exportDot(g, va, biv.bivalent->node, opts);
  EXPECT_NE(dot.find("color=red"), std::string::npos);
}

TEST(DotExport, PorGraphHighlightsExactlyTheHook) {
  // Under POR the valence analysis explores only the reduced edge tier
  // while the export walks the full one: every exported node must still
  // get a valence, and exactly the three hook edges turn red.
  RelaySystemSpec spec;
  spec.processCount = 4;
  spec.objectResilience = 1;
  spec.policy = services::DummyPolicy::PreferDummy;
  auto sys = buildRelayConsensusSystem(spec);
  StateGraph g(*sys, SymmetryPolicy::forSystem(*sys, SymmetryMode::Off),
               PorPolicy::forSystem(*sys, PorMode::Auto));
  ASSERT_TRUE(g.porActive());
  ValenceAnalyzer va(g);
  const NodeId root = g.intern(canonicalInitialization(*sys, 1));
  auto outcome = findHook(g, va, root);
  ASSERT_TRUE(outcome.hook);
  DotOptions opts;
  opts.maxNodes = 250;
  opts.highlightHook = outcome.hook;
  std::string dot;
  ASSERT_NO_THROW(dot = exportDot(g, va, root, opts));
  std::size_t red = 0;
  for (std::size_t pos = 0;
       (pos = dot.find("color=red", pos)) != std::string::npos; ++pos) {
    ++red;
  }
  EXPECT_EQ(red, 3u);
  const NodeId alpha = outcome.hook->alpha;
  EXPECT_NE(dot.find("  n" + std::to_string(alpha) + " -> "),
            std::string::npos);
}

TEST(DotExport, StateLabelsOptIn) {
  auto sys = relay();
  StateGraph g(*sys);
  ValenceAnalyzer va(g);
  NodeId root = g.intern(canonicalInitialization(*sys, 1));
  DotOptions opts;
  opts.includeStateLabels = true;
  opts.maxNodes = 2;
  std::string dot = exportDot(g, va, root, opts);
  EXPECT_NE(dot.find("val="), std::string::npos);  // service state dump
}

}  // namespace
}  // namespace boosting::analysis
