// System: the parallel composition of Section 2.2.3.
//
// A System owns the immutable description of a complete system C: the
// process automata P_i (i in I, contiguous from 0), the services S_c
// (canonical atomic objects, failure-oblivious services, general services,
// and registers, each with a unique user-chosen index c in K U R), and the
// routing of shared actions:
//
//   - an Invoke a_{i,c} is an output of P_i and an input of S_c,
//   - a Respond b_{i,c} is an output of S_c and an input of P_i,
//   - fail_i is an input of P_i and of every service with i in J_c,
//   - everything else has a single participant.
//
// SystemState is the cross product of component states; it is a value
// (clonable, hashable, comparable), which is what allows the analysis
// engine to explore the execution tree G(C) of Section 3.3 explicitly.
//
// Representation (see DESIGN.md "State representation"): slots hold
// copy-on-write shared component states, so copying a SystemState is a
// refcount bump per slot, and mutation detaches (clones) only the slots an
// action actually touches -- at most two, plus the fail fan-out. Each slot
// carries a cached component hash, and the combined hash is maintained
// incrementally as a position-salted XOR (Zobrist-style), so re-hashing
// after a transition recombines only the touched slots. SystemState is
// the simulation and materialization type: the analysis graph does not
// store SystemStates but rows of slot ids (SlotCanonTable below), and
// hands out SystemStates materialized from them on request.
//
// Sharing discipline: a slot whose cached hash is stale is never shared
// across threads. mutablePart() detaches before invalidating, and every
// canonicalized state has been hash()-flushed first, so readers on other
// threads only ever see clean, immutable slots (shared_ptr refcounts are
// atomic).
//
// ServiceMeta records the connection pattern J_c, the resilience level f_c,
// and whether the service is failure-aware -- the data that Theorems 2, 9
// and 10 quantify over (arbitrary connection patterns for atomic objects
// and failure-oblivious services; all-process connection for failure-aware
// services).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ioa/automaton.h"
#include "util/id_index.h"

namespace boosting::ioa {

struct ServiceMeta {
  int id = -1;                  // index c in K U R (unique across services)
  std::vector<int> endpoints;   // J_c
  int resilience = 0;           // f_c
  bool failureAware = false;    // true for general services (Sec. 6)
  bool isRegister = false;      // true for canonical reliable registers
};

// Cheap global tallies of the state-representation hot path, for benches
// and perf-regression tracking (relaxed atomics; zero when unused).
struct StatePerfCounters {
  std::uint64_t stateCopies = 0;  // SystemState copy ctor / assignments
  std::uint64_t slotClones = 0;   // COW detaches (virtual clone() calls)
  std::uint64_t slotHashes = 0;   // per-slot virtual hash() computations
};
StatePerfCounters statePerfSnapshot();
void statePerfReset();
// Manual tally hooks for engine code that clones/rehashes component states
// outside the SystemState mutators (the transition memo's miss path), so
// the counters keep meaning "work the representation could not avoid".
void statePerfNoteSlotClone();
void statePerfNoteSlotHash();

// Seed of the combined state hash (also the hash of the empty state).
inline constexpr std::size_t kSystemStateHashSeed = 0x51ab5e17u;

// An id no SlotCanonTable issues: "none" in tables keyed by slot ids.
inline constexpr std::uint32_t kNoSlotId = static_cast<std::uint32_t>(-1);

class SystemState final {
 public:
  SystemState() = default;
  SystemState(const SystemState& other);
  SystemState& operator=(const SystemState& other);
  SystemState(SystemState&&) noexcept = default;
  SystemState& operator=(SystemState&&) noexcept = default;

  // Combined hash over all slots. Flushes stale per-slot caches (mutable),
  // recombining only slots touched since the last call.
  std::size_t hash() const;
  // From-scratch recomputation that bypasses every cache; the invariant
  // hash() == fullRehash() is what the hash-consistency fuzz suite checks.
  std::size_t fullRehash() const;
  bool equals(const SystemState& other) const;
  bool operator==(const SystemState& other) const { return equals(other); }
  std::string str() const;

  const AutomatonState& part(std::size_t slot) const {
    return *slots_[slot].state;
  }
  // Mutable access detaches the slot from any sibling copies (clone-on-
  // write) and invalidates its cached hash. All mutators -- applyInPlace,
  // injectInit/injectFail, and the non-const part() -- route through here.
  AutomatonState& mutablePart(std::size_t slot);
  AutomatonState& part(std::size_t slot) { return mutablePart(slot); }
  std::size_t partCount() const { return slots_.size(); }

  // True when the two states share the same underlying component object --
  // the structural-sharing fast path equals() takes per slot.
  bool sharesSlotWith(const SystemState& other, std::size_t slot) const {
    return slots_[slot].state.get() == other.slots_[slot].state.get();
  }

  // Replace a slot with an immutable component state whose hash is
  // already known (repHash == rep->hash()). The combined hash is fixed up
  // incrementally; no clone or component rehash happens. This is the
  // orbit-relabeling path (analysis/symmetry.h) and the way
  // SlotCanonTable::materialize() fills a state from representatives.
  void setSlot(std::size_t slot, std::shared_ptr<const AutomatonState> rep,
               std::size_t repHash);

  // The shared component object at `slot` and its cached hash (only
  // valid after a hash() flush). The symmetry policy relabels with them
  // without cloning; SlotCanonTable::canonicalize() reads them.
  const std::shared_ptr<const AutomatonState>& slotShared(
      std::size_t slot) const {
    return slots_[slot].state;
  }
  std::size_t slotHashValue(std::size_t slot) const {
    return slots_[slot].hashValid ? slots_[slot].hash
                                  : slots_[slot].state->hash();
  }

  // Shallow footprint of this state object: the slot array plus the object
  // itself, NOT the component states behind the shared_ptrs (those are
  // hash-consed and shared across many states, so attributing them per
  // state would double-count). Used by StateGraph::memoryStats().
  std::size_t shallowBytes() const {
    return sizeof(SystemState) + slots_.capacity() * sizeof(Slot);
  }

 private:
  friend class System;
  friend class SlotCanonTable;

  struct Slot {
    std::shared_ptr<const AutomatonState> state;
    // Cached state->hash(); valid iff hashValid. Mutable: hash() memoizes.
    mutable std::size_t hash = 0;
    mutable bool hashValid = false;
  };
  static_assert(sizeof(Slot) <= 32, "a slot stays four words");

  void appendSlot(std::unique_ptr<AutomatonState> s);

  std::vector<Slot> slots_;
  // Incrementally maintained: kHashSeed XOR slotMix(i, hash_i) over every
  // slot whose cache is valid. hash() equals combined_ once all are valid.
  mutable std::size_t combined_ = kSystemStateHashSeed;
};

// Slot hash-consing (maximal structural sharing): maps (slot index, slot
// content) to one canonical representative, and gives every
// representative a dense u32 id (0, 1, 2, ... in registration order). The
// representatives sit in an array by id behind a util::IdIndex keyed on
// the position-salted slot hash; a probe compares slot and hash, then
// pointer identity, then the deep virtual equals. An
// interning engine (StateGraph, through its TransitionCache) owns one table
// and stores each configuration as a row of these ids, one per slot: two
// configurations are equal iff their rows are, and the deep virtual
// equals runs at most once per distinct slot content. Equal component
// states are stored once.
//
// Ids are only meaningful for the table that issued them. A SystemState
// carries no ids; it enters a table's id space through canonicalize()
// (every slot is looked up by content) and leaves it through
// materialize().
//
// Not thread-safe: a table belongs to one exploration at a time.
class SlotCanonTable {
 public:
  // What the table knows about one id.
  struct Rep {
    std::shared_ptr<const AutomatonState> state;  // immutable
    std::size_t hash = 0;                         // state->hash()
    std::uint32_t slot = 0;  // the slot position whose content it is
  };

  SlotCanonTable();
  SlotCanonTable(const SlotCanonTable&) = delete;
  SlotCanonTable& operator=(const SlotCanonTable&) = delete;
  ~SlotCanonTable();

  // The id of the representative of `probe`'s content at `slot`,
  // registering `probe` itself if the content is new. probeHash must
  // equal probe->hash(); `probe` must never be mutated afterwards.
  std::uint32_t canonicalizeSlot(std::size_t slot,
                                 std::shared_ptr<const AutomatonState> probe,
                                 std::size_t probeHash);

  // Writes the id of every slot of `s` to ids[0, s.partCount()), flushing
  // s's slot hashes first. `s` itself is unchanged.
  void canonicalize(const SystemState& s, std::uint32_t* ids);

  // The representative behind `id`. The reference is invalidated by the
  // next registration; the AutomatonState behind `state` lives as long as
  // the table.
  const Rep& rep(std::uint32_t id) const { return reps_[id]; }

  // Rewrites *out into the state whose slots are the representatives of
  // ids[0, count): every slot shared, every hash cache valid. Slots that
  // already hold their representative are left alone, so refilling a
  // scratch state with a neighbouring row touches only the differing slots.
  void materialize(const std::uint32_t* ids, std::size_t count,
                   SystemState* out) const;

  // Distinct component states held as representatives, over all slots.
  std::size_t size() const { return reps_.size(); }

 private:
  std::vector<Rep> reps_;  // by id
  util::IdIndex index_;    // slotMix(slot, hash) -> id
};

class System {
 public:
  System() = default;
  System(const System&) = delete;
  System& operator=(const System&) = delete;

  // Processes must be added first, in endpoint order 0, 1, ..., n-1.
  void addProcess(std::shared_ptr<const Automaton> p);
  void addService(std::shared_ptr<const Automaton> s, ServiceMeta meta);

  int processCount() const { return static_cast<int>(processes_.size()); }
  int serviceCount() const { return static_cast<int>(services_.size()); }

  // -- Slot layout: processes at [0, n), services at [n, n + |K U R|). ----
  std::size_t slotForProcess(int i) const { return static_cast<std::size_t>(i); }
  std::size_t slotForService(int serviceId) const;
  bool isProcessSlot(std::size_t slot) const {
    return slot < processes_.size();
  }
  const ServiceMeta& serviceMeta(int serviceId) const;
  const ServiceMeta& serviceMetaAtSlot(std::size_t slot) const;
  std::vector<int> serviceIds() const;  // sorted

  const Automaton& componentAtSlot(std::size_t slot) const;

  // -- Execution ----------------------------------------------------------
  SystemState initialState() const;

  // All tasks of the composition, in a fixed deterministic order (process
  // tasks first, then service tasks grouped per service). The list is
  // rebuilt eagerly whenever a component is added, so this accessor (like
  // enabled()/apply(), which are pure over immutable automata) is safe for
  // concurrent callers once the system is fully built.
  const std::vector<TaskId>& allTasks() const { return taskCache_; }

  // The slot whose component owns task `t` (the only slot enabled()
  // reads: locally controlled actions are enabled by their owner alone,
  // which is what makes per-slot transition memoization sound).
  std::size_t ownerSlot(const TaskId& t) const;

  // The unique action enabled for task `t` in `s`, if any.
  std::optional<Action> enabled(const SystemState& s, const TaskId& t) const;

  // Calls `fn(slot)` for each component slot participating in `a` (at
  // most two, plus fan-out for fail actions, which are inputs to the
  // process and all its services), without allocating.
  template <typename Fn>
  void forEachParticipant(const Action& a, Fn&& fn) const;

  // Apply `a` to every participant, in place.
  void applyInPlace(SystemState& s, const Action& a) const;

  // Clone-and-apply convenience used by the explorer.
  SystemState apply(const SystemState& s, const Action& a) const;

  // Environment inputs (not tasks): deliver init(v)_i / fail_i.
  void injectInit(SystemState& s, int endpoint, util::Value v) const;
  void injectFail(SystemState& s, int endpoint) const;

  // -- Symmetry declaration -------------------------------------------------
  // Declared by the system builder (the analysis engine trusts it; the
  // symmetry fuzz suite exercises it): every permutation of the full S_n
  // is an automorphism and process states never embed process identities,
  // so relabeling a process slot is moving its (shared) content to the
  // permuted position (relay). Undeclared means the trivial group
  // (asymmetric protocols like bridge/rotating, and protocols whose states
  // name processes, like flooding).
  void declareProcessSymmetry() { processSymmetric_ = true; }
  bool processSymmetric() const { return processSymmetric_; }

 private:
  void rebuildTaskCache();

  std::vector<std::shared_ptr<const Automaton>> processes_;
  std::vector<std::shared_ptr<const Automaton>> services_;
  std::vector<ServiceMeta> serviceMetas_;
  std::map<int, std::size_t> serviceSlotById_;  // id -> absolute slot
  std::vector<TaskId> taskCache_;
  bool processSymmetric_ = false;
};

template <typename Fn>
void System::forEachParticipant(const Action& a, Fn&& fn) const {
  switch (a.kind) {
    case ActionKind::EnvInit:
    case ActionKind::EnvDecide:
    case ActionKind::ProcStep:
    case ActionKind::ProcDummy:
      fn(slotForProcess(a.endpoint));
      break;
    case ActionKind::Invoke:
    case ActionKind::Respond:
      fn(slotForProcess(a.endpoint));
      fn(slotForService(a.component));
      break;
    case ActionKind::Perform:
    case ActionKind::DummyPerform:
    case ActionKind::DummyOutput:
    case ActionKind::Compute:
    case ActionKind::DummyCompute:
      fn(slotForService(a.component));
      break;
    case ActionKind::Fail:
      // fail_i: input of P_i and of every service with i in J_c.
      fn(slotForProcess(a.endpoint));
      for (std::size_t k = 0; k < services_.size(); ++k) {
        const auto& ends = serviceMetas_[k].endpoints;
        for (int e : ends) {
          if (e == a.endpoint) {
            fn(processes_.size() + k);
            break;
          }
        }
      }
      break;
  }
}

}  // namespace boosting::ioa
