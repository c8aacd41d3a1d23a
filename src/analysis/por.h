// PorPolicy: ample/stubborn-set partial-order reduction over the task
// structure of the complete system (composes with the symmetry quotient).
//
// The proof machinery of Section 3 (valence, the execution graph G(C), the
// Lemma-5 hook search) only consults WHICH configurations are reachable --
// the recorded inputs/decisions for the safety scan, the reachability of
// decide steps for valence -- never the order in which independent task
// applications interleave. Two enabled tasks whose read/write footprints
// are disjoint generate commuting diamonds in G(C); exploring one
// interleaving per diamond preserves every verdict. This policy picks, per
// expanded configuration, an AMPLE subset of the enabled tasks satisfying
// the standard soundness conditions (Valmari's strong stubborn sets;
// Clarke/Grumberg/Minea/Peled ample sets; see the Konnov et al. survey in
// PAPERS.md for the fault-tolerant-distributed-algorithm setting):
//
//   C0  the ample set of a non-terminal configuration is nonempty;
//   C1  (dependency closure) along any execution leaving the configuration
//       that uses only non-ample tasks, every task applied is independent
//       of every ample task, and no such execution enables an action
//       dependent on an ample one without passing through a member of the
//       computed stubborn set T -- guaranteed by closing T under
//       footprint intersection (enabled members) and necessary-enabling
//       sets (disabled members);
//   C2  (visibility, specialized to valence/hook relevance) a proper ample
//       set never contains a task whose current action is an EnvDecide:
//       decide steps are exactly what the valence predicates observe;
//   C3  (cycle proviso) enforced by the exploration engines, not here: an
//       ample set is accepted at a node only when at least one ample
//       successor is "open" (freshly interned, or interned but not yet
//       reduced-expanded, and not the node itself) -- the BFS analogue of
//       the DFS on-stack check, see DESIGN.md "Partial-order reduction".
//
// Footprints come from the canonical task structure that every component
// declares via ioa::Automaton::taskStructure() (the per-owner/participant
// slot purity already exploited by the TransitionCache, refined below slot
// granularity so that FIFO buffers do not serialize everything):
//
//   resource                   written/read by
//   procCore(i)                P_i's task (always), i-output of any c
//   invTail(c,i)               P_i's task when invoking c
//   invHead(c,i)               i-perform of c
//   svcCore(c)                 every perform/compute of c
//   respHead(c,i)              i-output of c
//   respTail(c,i)              performs/computes of c that respond to i
//
// Head and tail of one FIFO are DISTINCT resources: a push to a nonempty
// buffer commutes with the pop of its head (pop-tasks are only enabled on
// nonempty buffers), which is what lets a pending invocation or response
// travel independently of unrelated activity. Response coalescing
// (Options::coalesceResponses) breaks that commutation -- a push may be
// dropped depending on the tail -- so for such services respHead and
// respTail collapse into one resource. Necessary-enabling sets use the
// declared mayInvoke relation; a task that is disabled and whose every
// potential enabler is (transitively) permanently disabled is DEAD and
// constrains nothing -- this is what keeps the idle scratch register of
// the relay fixture from dragging every process into every stubborn set.
//
// Like the symmetry layer, the reduction trusts the component declarations
// (validated empirically by por_independence_fuzz_test); unknown action
// shapes, undeclared invocations, or a disabled always-enabled task make
// the policy fall back to full expansion for that configuration.
//
// The decision reads only, per task, "disabled" or the enabled action's
// kind (and, for an invocation, its service). The transition memo interns
// that tuple per slot id as the id's ENABLED CLASS
// (TransitionCache::enabledClass), so a configuration's decision is a
// function of its row of class ids, and the cache memoizes it on that row
// (TransitionCache::ampleDecision): a warm decision costs one class load
// per slot and one probe, with no per-task lookup. forSystem is
// deterministic and On decides exactly like Auto, so every non-trivial
// policy of one System makes the same decisions, and a cache shared by the
// jobs of a service type can keep them.
//
// Thread safety: none. ampleDecision(), ampleMask() and the note*()
// callbacks update the statistics through plain mutable members, so a
// policy belongs to one exploration thread. Every run builds its own
// policies (the adversary per analysis, the analysis service per job).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analysis/transition_cache.h"
#include "ioa/system.h"

namespace boosting::analysis {

// CLI-facing selection, mirroring SymmetryMode: Auto enables the reduction
// whenever every component declares a canonical task structure, On
// additionally surfaces WHY it stayed off (disabledReason), Off forces
// full expansion. The CLI, served jobs and the benchmark harness pass Auto
// by default; AdversaryConfig keeps Off for library callers.
enum class PorMode { Auto, On, Off };

class PorPolicy {
 public:
  // Stubborn sets are u64 masks over System::allTasks() indices.
  static constexpr std::size_t kMaxTasks = 64;

  // Builds the policy for `sys` under `mode`. Never fails: when the
  // reduction cannot be applied soundly (a component without a declared
  // task structure, more than kMaxTasks tasks, mode Off) the returned
  // policy is trivial() and disabledReason() says why. The System must
  // outlive the policy.
  static std::shared_ptr<const PorPolicy> forSystem(const ioa::System& sys,
                                                    PorMode mode);

  // The System the policy was built for.
  const ioa::System& system() const { return *sys_; }

  // Trivial: ampleMask() always answers "expand everything".
  bool trivial() const { return trivial_; }
  const std::string& disabledReason() const { return disabledReason_; }

  // The ample decision for the configuration `ids` (a row of `cache`'s
  // slot ids), as its id in `cache` (TransitionCache::decisionAt); the
  // policy must not be trivial(). The decision holds the ample task mask
  // (over sys.allTasks() indices) and the enabled mask; the two are equal
  // when no proper ample set is valid (or the configuration is
  // unanalyzable). Memoized in `cache` on the row of the slots' enabled
  // classes, which determines the per-task signature the decision is
  // computed from, so the decision is a pure function of the
  // configuration, whatever order the engine expands nodes in. Counted in
  // the statistics on every call. StateGraph keeps the id per reduced
  // list, and re-derives the list's tasks from it.
  std::uint32_t ampleDecision(const std::uint32_t* ids,
                              TransitionCache& cache) const;

  // The same decision, from the per-task enabled actions: actions[ti] is
  // the action task #ti enables, or nullptr when disabled. Returns the
  // ample mask and stores the enabled mask in *enabledOut. Not memoized:
  // computed afresh on every call (the reference path).
  std::uint64_t ampleMask(const std::vector<const ioa::Action*>& actions,
                          std::uint64_t* enabledOut) const;

  // -- Reduction statistics (flushed by flushGraphMetrics) ---------------
  // Expansions that consulted the policy.
  std::uint64_t nodesEvaluated() const { return nodesEvaluated_; }
  // Expansions that committed a proper ample subset (after the proviso).
  std::uint64_t nodesReduced() const { return nodesReduced_; }
  // Enabled tasks NOT expanded at reduced nodes (the saved successor
  // expansions).
  std::uint64_t tasksSkipped() const { return tasksSkipped_; }
  // Ample sets rejected by the cycle proviso (full expansion forced).
  std::uint64_t provisoHits() const { return provisoHits_; }
  // Sum of ample / enabled set sizes over evaluated nodes (for the
  // average ample fraction).
  std::uint64_t ampleSum() const { return ampleSum_; }
  std::uint64_t enabledSum() const { return enabledSum_; }
  // Enabled actions that contradicted the declared task structure (e.g.
  // an undeclared invocation); nonzero means a component lied and the
  // affected configurations were expanded fully.
  std::uint64_t declarationViolations() const {
    return declarationViolations_;
  }

  // Engine callbacks (const: the graph holds a shared_ptr<const>).
  void noteReduced(std::uint64_t enabled, std::uint64_t ample) const {
    ++nodesReduced_;
    tasksSkipped_ += enabled - ample;
  }
  void noteProvisoHit() const { ++provisoHits_; }

 private:
  PorPolicy() = default;

  // Per-task signature code: 0 = disabled; otherwise 1 | kind<<1 |
  // (serviceIndex+1)<<6 (serviceIndex only for process invocations).
  using Signature = std::vector<std::uint32_t>;

  using Decision = TransitionCache::AmpleDecision;

  Decision decide(const std::vector<const ioa::Action*>& actions,
                  Signature* sig) const;
  // Counts one evaluation of `d` in the statistics.
  void record(const Decision& d) const;
  std::uint32_t codeFor(std::size_t ti, const ioa::Action* a,
                        bool* analyzable, std::uint32_t* violations) const;
  std::uint64_t computeAmple(const Signature& sig,
                             std::uint64_t enabledMask) const;
  std::uint64_t closureFor(std::size_t seed, const Signature& sig,
                           std::uint64_t enabledMask, std::uint64_t deadMask,
                           bool* valid) const;
  std::uint64_t deadTasks(std::uint64_t enabledMask) const;

  const ioa::System* sys_ = nullptr;
  std::vector<int> serviceIds_;  // sorted, densely indexed
  bool trivial_ = true;
  std::string disabledReason_;
  std::size_t taskCount_ = 0;

  // Static tables over task indices (see the resource model above).
  struct TaskInfo {
    ioa::TaskOwner owner{};
    int component = -1;  // process index or service id
    int endpoint = -1;
    int serviceIndex = -1;       // dense index into serviceIds() order
    std::uint64_t depBase = 0;   // dependency closure of the base footprint
    std::uint64_t nes = 0;       // necessary enabling set (disabled tasks)
    bool alwaysEnabled = false;  // process / compute tasks
    // Process tasks: per-serviceIndex dependency mask when the current
    // action invokes that service (0 = not declared).
    std::vector<std::uint64_t> depInvoke;
  };
  std::vector<TaskInfo> tasks_;

  mutable std::uint64_t nodesEvaluated_ = 0;
  mutable std::uint64_t nodesReduced_ = 0;
  mutable std::uint64_t tasksSkipped_ = 0;
  mutable std::uint64_t provisoHits_ = 0;
  mutable std::uint64_t ampleSum_ = 0;
  mutable std::uint64_t enabledSum_ = 0;
  mutable std::uint64_t declarationViolations_ = 0;
};

}  // namespace boosting::analysis
