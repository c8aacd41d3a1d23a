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
// Thread safety: const-after-construction except the signature memo
// (shared_mutex) and the relaxed statistics, so ampleMask() may be called
// concurrently.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "ioa/system.h"

namespace boosting::analysis {

// CLI-facing selection, mirroring SymmetryMode: Auto enables the reduction
// whenever every component declares a canonical task structure, On
// additionally surfaces WHY it stayed off (disabledReason), Off forces
// full expansion (the legacy behavior and the default for every analysis
// entry point).
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

  // Trivial: ampleMask() always answers "expand everything".
  bool trivial() const { return trivial_; }
  const std::string& disabledReason() const { return disabledReason_; }

  // The ample decision for a configuration, presented as the per-task
  // enabled actions: actions[ti] is the action task #ti (in
  // sys.allTasks() order) enables, or nullptr when disabled. Returns the
  // ample task mask and stores the enabled mask in *enabledOut; the
  // result equals the enabled mask when no proper ample set is valid (or
  // the configuration is unanalyzable). Memoized on the signature (per-
  // task enabled kind + invoke target), so the decision is a pure
  // function of the configuration, whatever order the engine expands
  // nodes in.
  std::uint64_t ampleMask(const std::vector<const ioa::Action*>& actions,
                          std::uint64_t* enabledOut) const;

  // Caller-owned scratch for the decision (the per-task signature). The
  // graph keeps one across expansions, so a warm decision (signature
  // already memoized) makes no heap allocation. Never shared between
  // threads.
  struct Scratch {
    std::vector<std::uint32_t> signature;
  };
  std::uint64_t ampleMask(const std::vector<const ioa::Action*>& actions,
                          std::uint64_t* enabledOut, Scratch* scratch) const;

  // True when `a` is a strict no-op self-loop (a waiting process's dummy
  // step). Used by the engines' C3 check: a self-loop target never counts
  // as an open successor.
  static bool isNoOp(const ioa::Action& a) {
    return a.kind == ioa::ActionKind::ProcDummy;
  }

  // -- Reduction statistics (relaxed; flushed by flushGraphMetrics) -------
  // Expansions that consulted the policy.
  std::uint64_t nodesEvaluated() const {
    return nodesEvaluated_.load(std::memory_order_relaxed);
  }
  // Expansions that committed a proper ample subset (after the proviso).
  std::uint64_t nodesReduced() const {
    return nodesReduced_.load(std::memory_order_relaxed);
  }
  // Enabled tasks NOT expanded at reduced nodes (the saved successor
  // expansions).
  std::uint64_t tasksSkipped() const {
    return tasksSkipped_.load(std::memory_order_relaxed);
  }
  // Ample sets rejected by the cycle proviso (full expansion forced).
  std::uint64_t provisoHits() const {
    return provisoHits_.load(std::memory_order_relaxed);
  }
  // Sum of ample / enabled set sizes over evaluated nodes (for the
  // average ample fraction).
  std::uint64_t ampleSum() const {
    return ampleSum_.load(std::memory_order_relaxed);
  }
  std::uint64_t enabledSum() const {
    return enabledSum_.load(std::memory_order_relaxed);
  }
  // Enabled actions that contradicted the declared task structure (e.g.
  // an undeclared invocation); nonzero means a component lied and the
  // affected configurations were expanded fully.
  std::uint64_t declarationViolations() const {
    return declarationViolations_.load(std::memory_order_relaxed);
  }

  // Engine callbacks (const: the graph holds a shared_ptr<const>).
  void noteReduced(std::uint64_t enabled, std::uint64_t ample) const {
    nodesReduced_.fetch_add(1, std::memory_order_relaxed);
    tasksSkipped_.fetch_add(enabled - ample, std::memory_order_relaxed);
  }
  void noteProvisoHit() const {
    provisoHits_.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  PorPolicy() = default;

  // Per-task signature code: 0 = disabled; otherwise 1 | kind<<1 |
  // (serviceIndex+1)<<6 (serviceIndex only for process invocations).
  using Signature = std::vector<std::uint32_t>;
  struct SignatureHash {
    std::size_t operator()(const Signature& s) const;
  };

  std::uint32_t codeFor(std::size_t ti, const ioa::Action* a,
                        bool* analyzable) const;
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

  mutable std::shared_mutex memoMutex_;
  mutable std::unordered_map<Signature, std::uint64_t, SignatureHash> memo_;

  mutable std::atomic<std::uint64_t> nodesEvaluated_{0};
  mutable std::atomic<std::uint64_t> nodesReduced_{0};
  mutable std::atomic<std::uint64_t> tasksSkipped_{0};
  mutable std::atomic<std::uint64_t> provisoHits_{0};
  mutable std::atomic<std::uint64_t> ampleSum_{0};
  mutable std::atomic<std::uint64_t> enabledSum_{0};
  mutable std::atomic<std::uint64_t> declarationViolations_{0};
};

}  // namespace boosting::analysis
