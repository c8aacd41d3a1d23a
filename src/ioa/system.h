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
// after a transition recombines only the touched slots. This drops the
// per-edge cost of BFS over G(C) from O(total state size) to
// O(participants).
//
// Sharing discipline: a slot whose cached hash is stale is never shared
// across threads. mutablePart() detaches before invalidating, and every
// state published to another thread (interned into a graph or the parallel
// explorer's table) has been hash()-flushed first, so concurrent readers
// only ever see clean, immutable slots (shared_ptr refcounts are atomic).
//
// ServiceMeta records the connection pattern J_c, the resilience level f_c,
// and whether the service is failure-aware -- the data that Theorems 2, 9
// and 10 quantify over (arbitrary connection patterns for atomic objects
// and failure-oblivious services; all-process connection for failure-aware
// services).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ioa/automaton.h"

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

// Slot id of a slot no SlotCanonTable has canonicalized (see Slot::id).
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

  // Replace a slot with a canonical representative of its successor
  // content. Precondition: `rep` is immutable, shared through a
  // SlotCanonTable that gave it id `repId`, and repHash == rep->hash().
  // The combined hash is fixed up incrementally; no clone or component
  // rehash happens. This is the transition-memo fast path
  // (analysis/transition_cache.h): the slot is swapped wholesale, so
  // sibling copies are never affected.
  void adoptCanonicalSlot(std::size_t slot,
                          std::shared_ptr<const AutomatonState> rep,
                          std::size_t repHash, std::uint32_t repId);

  // Replace a slot with an arbitrary immutable component state whose hash
  // is already known (repHash == rep->hash()). Like adoptCanonicalSlot the
  // combined hash is fixed up incrementally, but the slot is NOT marked
  // canonical -- the content typically comes from another slot position or
  // a fresh relabeling, so a SlotCanonTable must re-intern it for the new
  // position. This is the orbit-relabeling path (analysis/symmetry.h).
  void setSlot(std::size_t slot, std::shared_ptr<const AutomatonState> rep,
               std::size_t repHash);

  // Engine hooks for the slot-swap fast path: the shared component object
  // at `slot`, and its cached hash (only valid after a hash() flush --
  // every state the engines expand qualifies). Together with
  // adoptCanonicalSlot these let TransitionCache::step() rewrite only the
  // participant slots of a reusable successor buffer.
  const std::shared_ptr<const AutomatonState>& slotShared(
      std::size_t slot) const {
    return slots_[slot].state;
  }
  std::size_t slotHashValue(std::size_t slot) const {
    return slots_[slot].hashValid ? slots_[slot].hash
                                  : slots_[slot].state->hash();
  }
  // The dense id the last SlotCanonTable that canonicalized this slot gave
  // its representative, or kNoSlotId. A HINT only: the state does not
  // record which table issued it, so a consumer keyed by ids must check
  // that the id maps back to this slot's pointer in its own table.
  std::uint32_t slotId(std::size_t slot) const { return slots_[slot].id; }

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
    // The representative's id once a SlotCanonTable has made this pointer
    // canonical, kNoSlotId otherwise (reset whenever the slot is mutated).
    // Purely an optimization hint: equality never depends on it.
    std::uint32_t id = kNoSlotId;
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
// hash) to the canonical representative of that component-state content.
// Interning engines (StateGraph, the parallel explorer's sharded table) own
// one table per interned-state set and canonicalize() every state before
// probing/storing it, so that equals() between two canonicalized states
// almost always resolves through the per-slot pointer-identity fast path
// and the deep virtual equals runs at most once per distinct slot content.
// Also dedupes memory: equal component states are stored once.
//
// Every representative gets a dense u32 id (0, 1, 2, ... in registration
// order) that canonicalize() stores in the slot. Ids of two tables
// overlap, which is why consumers treat them as hints (Slot::id).
//
// `concurrent = true` stripes the table with mutexes so the parallel
// explorer's workers can canonicalize probe states concurrently; the states
// being canonicalized are always thread-private, only the table is shared.
// Ids then come from one atomic counter.
class SlotCanonTable {
 public:
  explicit SlotCanonTable(bool concurrent = false);
  SlotCanonTable(const SlotCanonTable&) = delete;
  SlotCanonTable& operator=(const SlotCanonTable&) = delete;
  ~SlotCanonTable();

  // Flushes s's slot hashes and rewrites every non-canonical slot pointer
  // to the table's representative of equal content (registering first-seen
  // content as the representative). Equality and hash of `s` are unchanged.
  void canonicalize(SystemState& s);

  struct Rep {
    std::shared_ptr<const AutomatonState> state;
    std::uint32_t id = kNoSlotId;
  };
  // Single-slot entry point: the representative of `probe`'s content at
  // `slot` (registering `probe` if first seen) and its id. probeHash must
  // equal probe->hash(); the representative hashes identically.
  Rep canonicalizeSlot(std::size_t slot,
                       std::shared_ptr<const AutomatonState> probe,
                       std::size_t probeHash);

  // Distinct component states held as representatives, over all slots.
  std::size_t size() const;

 private:
  struct Stripe;
  bool concurrent_;
  std::vector<Stripe> stripes_;
  std::atomic<std::uint32_t> nextId_{0};
};

// How a system's process-permutation group acts on process component
// states, declared by the system builder (the analysis engine trusts the
// declaration; the symmetry fuzz suite exercises it):
//   None        -- no symmetry declared: the group is trivial (asymmetric
//                  protocols like bridge/rotating, or simply undeclared).
//   IdFree      -- every permutation of the full S_n is an automorphism and
//                  process states never embed process identities, so
//                  relabeling a process slot is moving its (shared) content
//                  to the permuted position (relay).
//   IdSensitive -- full S_n, but process states embed process identities,
//                  so relabeling goes through Automaton::relabeledState
//                  (flooding, whose states index messages by sender).
enum class ProcessSymmetry { None, IdFree, IdSensitive };

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
  // concurrent callers once the system is fully built -- the contract the
  // parallel exploration engine relies on.
  const std::vector<TaskId>& allTasks() const { return taskCache_; }

  // The slot whose component owns task `t` (the only slot enabled()
  // reads: locally controlled actions are enabled by their owner alone,
  // which is what makes per-slot transition memoization sound).
  std::size_t ownerSlot(const TaskId& t) const;

  // The unique action enabled for task `t` in `s`, if any.
  std::optional<Action> enabled(const SystemState& s, const TaskId& t) const;

  // Component slots participating in `a` (at most two, plus fan-out for
  // fail actions, which are inputs to the process and all its services).
  std::vector<std::size_t> participants(const Action& a) const;

  // Allocation-free participant enumeration for the transition hot loop;
  // calls `fn(slot)` for each participant in the same order participants()
  // returns them.
  template <typename Fn>
  void forEachParticipant(const Action& a, Fn&& fn) const;

  // Apply `a` to every participant, in place.
  void applyInPlace(SystemState& s, const Action& a) const;

  // Clone-and-apply convenience used by the explorer.
  SystemState apply(const SystemState& s, const Action& a) const;

  // Environment inputs (not tasks): deliver init(v)_i / fail_i.
  void injectInit(SystemState& s, int endpoint, util::Value v) const;
  void injectFail(SystemState& s, int endpoint) const;

  // -- Symmetry declaration (see ProcessSymmetry above) --------------------
  void declareProcessSymmetry(ProcessSymmetry s) { processSymmetry_ = s; }
  ProcessSymmetry processSymmetry() const { return processSymmetry_; }

 private:
  void rebuildTaskCache();

  std::vector<std::shared_ptr<const Automaton>> processes_;
  std::vector<std::shared_ptr<const Automaton>> services_;
  std::vector<ServiceMeta> serviceMetas_;
  std::map<int, std::size_t> serviceSlotById_;  // id -> absolute slot
  std::vector<TaskId> taskCache_;
  ProcessSymmetry processSymmetry_ = ProcessSymmetry::None;
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
