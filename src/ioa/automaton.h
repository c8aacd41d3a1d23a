// Automaton / AutomatonState: the component interface of the system model.
//
// Components (process automata, canonical services, registers) are modeled
// functionally: an Automaton is an immutable description (signature, tasks,
// transition function) and all mutable data lives in value-semantic
// AutomatonState objects. This split is what lets the analysis engine of
// Section 3 treat configurations as first-class values -- cloning them to
// branch the execution tree G(C), hashing them to memoize valences, and
// comparing them to detect the similarity relations of Section 3.5.
//
// Determinism (Section 3.1, assumptions (i) and (ii)): every automaton in
// this library enables AT MOST ONE action per task in any state, so a
// failure-free execution is uniquely determined by its task sequence --
// exactly the property the paper assumes without loss of generality. The
// only residual choice (a service preferring its dummy action over a real
// one once failures exceed its resilience) is resolved deterministically by
// an explicit policy owned by the adversary (see services/canonical_general.h).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ioa/action.h"
#include "ioa/task.h"

namespace boosting::ioa {

class AutomatonState {
 public:
  virtual ~AutomatonState() = default;

  virtual std::unique_ptr<AutomatonState> clone() const = 0;
  virtual std::size_t hash() const = 0;
  virtual bool equals(const AutomatonState& other) const = 0;
  virtual std::string str() const = 0;
};

class Automaton {
 public:
  virtual ~Automaton() = default;

  virtual std::string name() const = 0;

  // The unique start state (deterministic restriction of Section 3.1).
  virtual std::unique_ptr<AutomatonState> initialState() const = 0;

  // The automaton's tasks (partition of its locally controlled actions).
  virtual std::vector<TaskId> tasks() const = 0;

  // The unique action of task `t` enabled in `s`, if any. Determinism
  // guarantees at-most-one; nullopt means the task is not applicable.
  virtual std::optional<Action> enabledAction(const AutomatonState& s,
                                              const TaskId& t) const = 0;

  // Apply action `a` (input or locally controlled) to `s`. Called only for
  // actions in which this automaton participates. I/O automata are
  // input-enabled: apply must accept any input action in the signature.
  virtual void apply(AutomatonState& s, const Action& a) const = 0;

  // Signature membership for input routing of fail_i: does this automaton
  // participate in `a`? (Invoke/Respond/internal actions are routed
  // structurally by System; this is consulted for Fail and as a check.)
  virtual bool participates(const Action& a) const = 0;

  // -- Process-permutation support (analysis/symmetry.h) ------------------
  //
  // `s` relabeled under the process permutation `perm` (perm[i] is the new
  // index of process i): every endpoint-keyed part of the state -- buffer
  // keys, failed sets -- is mapped through `perm`. Consulted for service
  // slots only (process states of symmetric candidates are id-free and move
  // as a whole). Returns nullptr when the component does not support
  // relabeling, in which case the symmetry layer disables itself for the
  // whole system. Must be equivariant with apply():
  //   relabeledState(apply(s, a), perm) == apply(relabeledState(s, perm),
  //                                              relabel(a, perm)).
  virtual std::unique_ptr<AutomatonState> relabeledState(
      const AutomatonState& s, const std::vector<int>& perm) const {
    (void)s;
    (void)perm;
    return nullptr;
  }

  // -- Task-structure declaration (analysis/por.h) -------------------------
  //
  // Partial-order reduction needs to know which shared resources a task
  // reads/writes. For components following the canonical shapes of the
  // paper -- processes in the Section 2.2.1 mold (one task; invoke/decide/
  // local steps driven by chooseAction) and canonical services in the
  // Fig. 1/4/8 mold (per-endpoint FIFO inv/resp buffers around a central
  // value) -- that footprint is derivable mechanically, and declaring
  // conformance here opts the component into the reduction.
  //
  // Like declareProcessSymmetry, this is a TRUSTED declaration validated
  // empirically by the por fuzz suites: a wrong `mayInvoke` (a process that
  // invokes a service it did not declare) breaks soundness of the dead-task
  // analysis. The default declines, which keeps the reduction off for the
  // whole system (PorPolicy::forSystem reports why).
  struct TaskStructure {
    // True when the component follows the canonical task shape described
    // above and the remaining fields are accurate.
    bool conformant = false;
    // Services only: responses may be coalesced with the buffer tail
    // (Options::coalesceResponses), which makes perform/compute steps
    // non-commutative with the response-consuming output steps.
    bool coalescedResponses = false;
    // Services only: every perform response is addressed to the invoking
    // endpoint and compute tasks are absent (the Section-5.1 sequential
    // embedding); narrows a perform's write footprint to one buffer.
    bool respondsToInvokerOnly = false;
    // Processes only: ids of every service this process may EVER invoke,
    // in any reachable state (an over-approximation is sound).
    std::vector<int> mayInvoke;
  };
  virtual TaskStructure taskStructure() const { return {}; }
};

// Covariant-clone helper for concrete states.
template <typename Derived>
std::unique_ptr<AutomatonState> cloneState(const Derived& d) {
  return std::make_unique<Derived>(d);
}

}  // namespace boosting::ioa
