// TransitionCache: memoized component transitions over hash-consed slots.
//
// Under the determinism assumptions of Section 3.1, whether task e is
// enabled -- and which action it produces -- is a pure function of the
// owning component's local state, and the effect of an action on a
// participant is a pure function of that participant's local state and the
// action. Because the exploration engines hash-cons slot states through a
// SlotCanonTable, "local state" is identified by the representative's
// dense slot id, so both functions are memoizable with integer keys:
//
//   (owner slot id, task)               -> enabled? + action + participants
//                                          + the owner's successor slot id
//   (transition, other participant id)  -> that participant's successor id
//
// The first memo is a ROW per owner id: one contiguous block of entries,
// one per task the owner slot owns, reached by indexing (no hashing). The
// action identity in the second memo is represented by its producer (the
// row entry) -- determinism again -- and the owner is always a participant
// of its own task's action, so its successor lives in the entry itself.
// Only the other participant of an invoke or respond goes through one
// open-addressing table keyed by (entry, participant id). With both memos
// warm, expanding an edge costs a few vector loads plus, per participant,
// a refcount bump to adopt the successor slot; no component is cloned,
// stepped, rehashed, or canonicalized more than once per distinct (local
// state, action) pair in the whole exploration.
//
// Ids are HINTS (see SystemState::slotId): a state may carry ids issued by
// another table (a state copied out of one graph and interned into a graph
// with another memo keeps its old ids). The cache trusts a slot's id only
// when its own id -> representative map sends that id to the slot's
// pointer at the same slot position; otherwise it resolves the slot through
// canonicalizeSlot to its own table's id. Correctness therefore never
// depends on where a state's ids came from: a foreign or missing id only
// costs one table lookup.
//
// The cache is NOT thread-safe; like its SlotCanonTable it belongs to one
// exploration at a time (see analysis/analysis_memo.h).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "ioa/system.h"

namespace boosting::analysis {

class TransitionCache {
 public:
  // Memo effectiveness tallies, kept as plain members (the cache is
  // single-threaded by contract) and flushed to an obs::Registry by the
  // owning engine at phase boundaries. By construction
  // hits + misses == lookups for each memo; the observability test suite
  // asserts the invariant end to end.
  struct Stats {
    std::uint64_t enabledLookups = 0;  // (owner slot, task) memo probes
    std::uint64_t enabledHits = 0;
    std::uint64_t enabledMisses = 0;
    std::uint64_t applyLookups = 0;  // (participant slot, action) probes
    std::uint64_t applyHits = 0;
    std::uint64_t applyMisses = 0;

    void accumulate(const Stats& other) {
      enabledLookups += other.enabledLookups;
      enabledHits += other.enabledHits;
      enabledMisses += other.enabledMisses;
      applyLookups += other.applyLookups;
      applyHits += other.applyHits;
      applyMisses += other.applyMisses;
    }

    // This snapshot minus an earlier one of the same cache. Every field is
    // monotone, so the difference is a well-formed Stats that satisfies
    // hits + misses == lookups whenever both endpoints do. Used to report
    // PER-GRAPH tallies of a cache shared across graphs (a service memo,
    // see analysis/analysis_memo.h).
    Stats deltaSince(const Stats& base) const {
      Stats d;
      d.enabledLookups = enabledLookups - base.enabledLookups;
      d.enabledHits = enabledHits - base.enabledHits;
      d.enabledMisses = enabledMisses - base.enabledMisses;
      d.applyLookups = applyLookups - base.applyLookups;
      d.applyHits = applyHits - base.applyHits;
      d.applyMisses = applyMisses - base.applyMisses;
      return d;
    }
  };

  static constexpr std::uint32_t kNoPoolIndex =
      static_cast<std::uint32_t>(-1);

  // One memoized enabled transition: stable address for the cache's
  // lifetime. `poolIndex` belongs to the cache's single action-pool
  // consumer (the owning AnalysisMemo's pool), which fills it on first use
  // so later edges skip hashing the action.
  struct Transition {
    ioa::Action action;
    std::uint32_t poolIndex = kNoPoolIndex;
  };

  // Both referees must outlive the cache; `sys` must be fully built (the
  // task list is snapshotted here).
  TransitionCache(const ioa::System& sys, ioa::SlotCanonTable& canon);

  const Stats& stats() const { return stats_; }
  // Memoized (owner slot state, task) entries.
  std::size_t size() const { return entryCount_; }

  // The action task #taskIndex (in sys.allTasks() order) enables in `s`,
  // or nullptr when disabled. Builds no successor; the pointer is stable
  // until destruction. Counts as one enabled-memo lookup.
  const ioa::Action* enabledAction(const ioa::SystemState& s,
                                   std::size_t taskIndex);

  // If task #taskIndex is enabled in `s`, makes *next the successor state
  // -- canonical slots, all hash caches valid -- and returns the memoized
  // transition. Returns nullptr when disabled. `s` must only contain
  // immutable shared slots (any state produced by the engines or by step()
  // itself qualifies).
  //
  // *next is a reusable scratch buffer: pass the same object for every
  // task expanded from the same source `s`, without mutating it in
  // between (moving it away -- e.g. interning the successor -- is fine).
  // When the buffer still holds the previous successor of `s`, only the
  // slots touched by the previous step are reverted and only the new
  // participant slots are written: the per-edge cost is a handful of
  // pointer swaps, no slot-vector copy.
  Transition* step(const ioa::SystemState& s, std::size_t taskIndex,
                   ioa::SystemState* next);

 private:
  static constexpr std::uint32_t kUnknown = static_cast<std::uint32_t>(-1);
  static constexpr std::uint32_t kDisabled = kUnknown - 1;

  // What the cache knows about one id of its table.
  struct IdInfo {
    std::shared_ptr<const ioa::AutomatonState> rep;  // null: unseen id
    std::size_t hash = 0;
    std::uint32_t slot = 0;
    std::uint32_t row = kUnknown;  // first entry of the owner row
  };
  // One (owner id, task) memo entry, 16 bytes.
  struct Entry {
    std::uint32_t transition = kUnknown;  // index into transitions_, or
                                          // kUnknown / kDisabled
    std::uint32_t ownerNext = ioa::kNoSlotId;  // id of the owner's successor
    std::uint32_t othersBegin = 0;        // into others_
    std::uint16_t othersCount = 0;
    bool ownerParticipates = false;
  };
  // (entry index, participant id) -> successor id.
  struct NextSlot {
    std::uint64_t key = kEmptyKey;
    std::uint32_t next = ioa::kNoSlotId;
  };
  static constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};

  std::uint32_t resolve(const ioa::SystemState& s, std::size_t slot);
  void remember(const ioa::SlotCanonTable::Rep& rep, std::size_t hash,
                std::size_t slot);
  std::uint32_t probe(const ioa::SystemState& s, std::size_t taskIndex);
  std::uint32_t successorId(const ioa::SystemState& s, std::size_t slot,
                            const ioa::Action& a);
  void adopt(ioa::SystemState* next, std::size_t slot, std::uint32_t id);
  NextSlot& findNext(std::uint64_t key);
  void growNext();

  const ioa::System& sys_;
  ioa::SlotCanonTable& canon_;
  std::vector<std::uint32_t> ownerSlot_;  // per task index
  std::vector<std::uint32_t> rowOffset_;  // per task: index inside its row
  std::vector<std::uint32_t> rowSize_;    // per slot: tasks it owns
  std::vector<IdInfo> ids_;
  std::vector<Entry> entries_;            // rows, back to back
  std::deque<Transition> transitions_;    // stable: step() hands them out
  std::vector<std::uint32_t> others_;     // non-owner participant slots
  std::vector<NextSlot> nextTable_;
  std::size_t nextUsed_ = 0;
  std::size_t entryCount_ = 0;
  // Scratch-buffer bookkeeping: the source state the buffer was last
  // prepared from (address of an engine-stable state) and the slots the
  // previous step wrote, so the next step can revert just those.
  const ioa::SystemState* lastSource_ = nullptr;
  std::vector<std::size_t> lastTouched_;
  Stats stats_;
};

}  // namespace boosting::analysis
