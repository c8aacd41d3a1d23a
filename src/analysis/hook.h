// Hook search (Section 3.4, Fig. 2 and Fig. 3, Lemma 5).
//
// Starting from a bivalent initialization, the paper's construction walks
// G(C) through bivalent vertices, processing tasks in round-robin order:
// for the next applicable task e it looks for a descendant alpha' reachable
// without executing e such that e(alpha') is still bivalent, and moves
// there; when no such descendant exists the walk stops, and the proof of
// Lemma 5 extracts a HOOK: a vertex alpha with tasks e, e' such that
// e(alpha) is 0-valent while e(e'(alpha)) is 1-valent (or the mirror
// image).
//
// On a finite-state system the walk has a second possible outcome that the
// paper's infinite-execution argument rules out for correct systems: the
// walk revisits a (configuration, round-robin position) pair. Because the
// whole construction is deterministic, such a revisit certifies an INFINITE
// FAIR failure-free execution through bivalent configurations -- i.e. a
// fair execution in which no process ever decides, which is itself a
// termination-violation witness (this is how the paper's "suppose pi is
// infinite" case materializes in finite instances).
#pragma once

#include <optional>
#include <vector>

#include "analysis/valence.h"

namespace boosting::analysis {

struct Hook {
  NodeId alpha = kNoNode;   // the bivalent base vertex
  ioa::TaskId e;            // the committing task
  ioa::TaskId ePrime;       // the diverging task
  NodeId alpha0 = kNoNode;      // e(alpha)
  NodeId alphaPrime = kNoNode;  // e'(alpha)
  NodeId alpha1 = kNoNode;      // e(e'(alpha))
  Valence alpha0Valence = Valence::Zero;  // valence of e(alpha)
  Valence alpha1Valence = Valence::One;   // valence of e(e'(alpha))
};

struct HookSearchOutcome {
  std::optional<Hook> hook;

  // Fair bivalent cycle: the walk revisited (node, cursor); `cycleTasks`
  // replays one period of the resulting infinite fair execution.
  bool fairCycle = false;
  std::vector<ioa::TaskId> cycleTasks;
  NodeId cycleStart = kNoNode;

  std::size_t iterations = 0;       // outer-loop steps taken
  std::size_t statesTouched = 0;    // graph size after the search
};

// The Fig. 3 walk. The bivalent region is explored (valences included)
// before the walk starts, so every inner scan -- the one-step e-extension
// checks over the e-free-reachable descendants -- runs against cached
// successors and valences; `policy` supplies the metrics sink.
HookSearchOutcome findHook(StateGraph& g, ValenceAnalyzer& va,
                           NodeId bivalentInit,
                           std::size_t maxIterations = 1u << 20,
                           const ExplorationPolicy& policy = {});

// Exhaustive Fig.-2 pattern scan (an ablation of the Fig.-3 procedure):
// enumerate EVERY hook in the reachable region of `root` by checking, at
// each bivalent vertex alpha and each ordered task pair (e, e'), whether
// e(alpha) and e(e'(alpha)) are univalent with opposite valences. Used to
// measure hook density and to validate that the directed search of
// findHook returns one of the genuinely existing hooks.
struct HookEnumeration {
  std::vector<Hook> hooks;
  std::size_t bivalentNodes = 0;
  std::size_t nodesScanned = 0;
};

HookEnumeration enumerateHooks(StateGraph& g, ValenceAnalyzer& va,
                               NodeId root, std::size_t maxHooks = 4096);

// Does `hook` satisfy the Fig. 2 defining conditions in this graph?
bool isGenuineHook(StateGraph& g, ValenceAnalyzer& va, const Hook& hook);

}  // namespace boosting::analysis
