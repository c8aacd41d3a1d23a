// Bivalent initializations (Lemma 4).
//
// The paper's Lemma 4 considers the n+1 canonical initializations
// alpha_0 .. alpha_n, where in alpha_j processes P_0..P_{j-1} receive input
// 1 and the rest receive 0. Validity forces alpha_0 to be 0-valent and
// alpha_n to be 1-valent, so somewhere along the chain the valence flips;
// the lemma shows that at the flip there must be a bivalent initialization
// -- otherwise failing the single differing process yields executions that
// contradict the adjacent valences.
//
// This module classifies all n+1 canonical initializations against the
// exhaustive valence analysis. For a candidate system the result is either
// a bivalent initialization (the usual case, feeding the hook search) or an
// adjacent opposite-valent pair whose differing process the adversary then
// fails to manufacture a concrete counterexample.
#pragma once

#include <optional>
#include <vector>

#include "analysis/valence.h"

namespace boosting::analysis {

struct InitializationOutcome {
  int onesPrefix = 0;  // j: endpoints 0..j-1 proposed 1, the rest 0
  NodeId node = kNoNode;
  Valence valence = Valence::Null;
};

struct BivalenceResult {
  std::vector<InitializationOutcome> initializations;  // j = 0..n
  std::optional<InitializationOutcome> bivalent;       // first bivalent
  // When no initialization is bivalent: an adjacent pair with different
  // univalent valences (differing only in endpoint `first.onesPrefix`).
  std::optional<std::pair<InitializationOutcome, InitializationOutcome>>
      adjacentOppositePair;
};

// Build the canonical initialization alpha_j as a system state (input-first:
// all init inputs applied to the initial configuration).
ioa::SystemState canonicalInitialization(const ioa::System& sys,
                                         int onesPrefix);

// Classify the n+1 canonical initializations, in order: alpha_j's region
// is explored (and interned) after alpha_0..alpha_{j-1}'s, which fixes the
// node numbering.
BivalenceResult findBivalentInitialization(StateGraph& g, ValenceAnalyzer& va,
                                           const ExplorationPolicy& policy = {});

}  // namespace boosting::analysis
