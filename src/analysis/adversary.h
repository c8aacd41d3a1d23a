// ConsensusAdversary: the end-to-end mechanization of the impossibility
// proofs (Theorems 2, 9 and 10) against a CONCRETE candidate system.
//
// A universally-quantified impossibility theorem cannot be "tested" over
// all protocols; what can be reproduced is the proof's *procedure*, which
// is fully constructive: given any system of f-resilient services and
// reliable registers that is claimed to solve (f+1)-resilient consensus,
// the procedure manufactures a witness that the claim is false. This
// module runs that procedure:
//
//   1. Exhaustive failure-free safety scan: any reachable configuration
//      where two processes decided differently (agreement) or where a
//      decision matches no input (validity) yields a SafetyViolation
//      witness execution.
//   2. Lemma 4: classify the canonical initializations. A Null-valent
//      initialization (no decision reachable at all) or -- when no
//      bivalent initialization exists -- the adjacent opposite-valent pair
//      is converted into a concrete counterexample by failing the single
//      differing process.
//   3. Lemma 5 / Fig. 3: hook search from the bivalent initialization.
//      A fair bivalent cycle is itself a FAILURE-FREE termination
//      counterexample; otherwise a hook is found.
//   4. Lemma 8's case analysis: classify the hook endpoints (commute /
//      j-similar / k-similar), choose the failure set J exactly as in the
//      proofs of Lemmas 6 and 7, and run the gamma construction: fail the
//      f+1 processes of J, let every silenced service take its dummy
//      steps (DummyPolicy::PreferDummy), and schedule fairly. For any
//      candidate whose valence certificates are sound, this run cannot
//      decide (else replaying its failure-free projection after the
//      1-valent endpoint would decide 0 there), so it livelocks:
//      a fair execution with f+1 failures in which a correct process with
//      an input never decides -- the operational refutation of
//      (f+1)-resilient consensus.
//
// IMPORTANT: the candidate system must be built with
// DummyPolicy::PreferDummy so that step 4's adversarial silencing is the
// deterministic behaviour. Failure-free analysis (steps 1-3) is identical
// under both policies.
#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <string>

#include "analysis/bivalence.h"
#include "analysis/hook.h"
#include "analysis/por.h"
#include "analysis/similarity.h"
#include "analysis/symmetry.h"
#include "analysis/transition_cache.h"
#include "ioa/execution.h"

namespace boosting::analysis {

struct AdversaryConfig {
  int claimedFailures = 1;  // f+1: the resilience the candidate claims
  std::size_t gammaMaxSteps = 100000;
  std::size_t hookMaxIterations = 1u << 20;
  bool exemptFailureAware = false;  // Theorem-10 mode similarity
  // Metrics sink and per-expansion hook for every G(C)
  // exploration in the pipeline (Lemma 4 scan, valence regions, hook
  // search); see analysis/parallel_explorer.h.
  ExplorationPolicy exploration;
  // Orbit reduction of every explored graph by the candidate's declared
  // process-permutation group (analysis/symmetry.h). Off and Auto keep
  // the identity group (Auto is the front ends' default: POR alone is
  // faster); On enables the quotient when the candidate declares a
  // symmetry the policy can exploit and surfaces the reason when it cannot
  // be honored.
  SymmetryMode symmetry = SymmetryMode::Off;
  // Ample-set partial-order reduction of every explored graph, stacked on
  // top of the symmetry quotient (analysis/por.h). Off preserves the
  // legacy engine bit-for-bit; Auto enables reduction exactly when every
  // component declares a canonical task structure; On requests it and
  // surfaces the reason when it cannot be honored.
  PorMode por = PorMode::Off;
  // Cross-job warm start (the analysis service): a transition cache built
  // for the SAME System object shares its slot canon table, memos, action
  // pool and ample decisions with the pipeline's StateGraph. Null (the
  // default) keeps a private cache; verdicts and every proof artifact are
  // bit-identical either way (see analysis/transition_cache.h). The cache
  // must not be in use by another exploration concurrently.
  std::shared_ptr<TransitionCache> memo;
};

struct AdversaryReport {
  enum class Verdict {
    SafetyViolation,       // agreement/validity broken failure-free
    TerminationViolation,  // fair execution, <= f+1 failures, no decision
    Inconclusive,          // budget exhausted or certificate inconsistency
  };

  Verdict verdict = Verdict::Inconclusive;
  std::string narrative;

  // The counterexample execution (input-first; includes any fail actions).
  ioa::Execution witness;
  std::set<int> witnessFailures;
  bool witnessIsFailureFree() const { return witnessFailures.empty(); }

  // Proof artifacts gathered along the way.
  std::vector<InitializationOutcome> initializations;
  std::optional<InitializationOutcome> bivalentInit;
  std::optional<Hook> hook;
  HookClassification classification;
  bool fairCycle = false;
  std::size_t statesExplored = 0;

  // Symmetry-reduction telemetry (see analysis/symmetry.h). When
  // symmetryReduced is false, symmetryNote carries the reason reduction was
  // not applied (empty when it was simply not requested).
  bool symmetryReduced = false;
  std::string symmetryNote;
  std::uint64_t symmetryStatesRaw = 0;
  std::uint64_t symmetryOrbitsCollapsed = 0;

  // Partial-order-reduction telemetry (see analysis/por.h). When
  // porReduced is false, porNote carries the reason reduction was not
  // applied (empty when it was simply not requested).
  bool porReduced = false;
  std::string porNote;
  std::uint64_t porNodesReduced = 0;    // proper ample sets committed
  std::uint64_t porTasksSkipped = 0;    // successor expansions saved
  std::uint64_t porProvisoHits = 0;     // ample sets rejected by C3

  std::string summary() const;
};

AdversaryReport analyzeConsensusCandidate(const ioa::System& sys,
                                          const AdversaryConfig& cfg);

// Step 1's node-local check: the first violation, in process order, of
// validity (a decision equal to no recorded input) or agreement (a decision
// differing from the first one) in `s`, as the report narrative; nullopt
// when `s` is safe.
std::optional<std::string> nodeSafetyViolation(const ioa::System& sys,
                                               const ioa::SystemState& s);
// The same check on node `id` of `g`, reading the process slots' states
// through the graph's slot ids (no state is materialized): the form the
// exhaustive safety scan runs on every node.
std::optional<std::string> nodeSafetyViolation(const StateGraph& g,
                                               NodeId id);
// Step 1's exhaustive scan: the first node of `g`, in id order, for which
// nodeSafetyViolation(g, id) reports a violation, or kNoNode. Each process
// slot id's (decision, input) is read once and interned to small ints, so
// a node costs a few integer compares per process; only the flagged node
// goes back to nodeSafetyViolation for the narrative. Reports progress to
// `reg` when non-null.
NodeId firstUnsafeNode(const StateGraph& g, obs::Registry* reg = nullptr);

// Brute-force complement to the proof-guided engine: enumerate every
// failure set of size 1..maxFailures and every canonical initialization,
// run the deterministic fair schedule with the failures injected up front,
// and report the first certified livelock (a fair execution in which some
// correct process with an input never decides).
//
// Two uses: (a) an independent check that the proof-guided witness is not
// an artifact of the hook construction; (b) a NEGATIVE control -- against
// a genuinely f-resilient system (e.g. the Section-6.3 rotating
// coordinator with f = n-1) the search must come back empty, showing the
// machinery does not manufacture false counterexamples.
struct TerminationSearchReport {
  bool counterexampleFound = false;
  std::set<int> failureSet;
  int onesPrefix = -1;  // the initialization of the witness
  ioa::Execution witness;
  std::size_t runsTried = 0;
  std::size_t runsDecided = 0;
};

TerminationSearchReport searchTerminationCounterexample(
    const ioa::System& sys, int maxFailures, std::size_t maxSteps = 100000);

}  // namespace boosting::analysis
