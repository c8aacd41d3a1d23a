// TransitionCache: the memo of one System -- every pure function of the
// System that the engines look up -- over hash-consed slots.
//
// Under the determinism assumptions of Section 3.1, whether task e is
// enabled -- and which action it produces -- is a pure function of the
// owning component's local state, and the effect of an action on a
// participant is a pure function of that participant's local state and the
// action. The exploration engines store a configuration as a row of slot
// ids issued by the cache's own SlotCanonTable (see analysis/state_graph.h),
// so "local state" is a u32 and both functions are memoizable with integer
// keys:
//
//   (owner slot id, task)               -> enabled? + action + participants
//                                          + the owner's successor slot id
//   (entry, other participant id)       -> that participant's successor id
//
// The first memo is a ROW per owner id: one contiguous block of entries,
// one per task the owner slot owns, reached by indexing (no hashing). An
// entry IS its action's index in the cache's ACTION POOL: the enabled
// action is interned there on the entry's miss, so the thousands of
// entries that enable one of a few dozen distinct actions share one
// stored copy. The graph stores no task or action per edge: it re-reads
// them from the source row's filled entries (filledAction). The action
// identity in the second memo is represented by its producer (the row
// entry) -- determinism again -- and the owner is always a participant
// of its own task's action, so its successor lives in the entry itself.
// Only the other participant of an invoke or respond goes through the
// second memo: a RowTable of {entry, participant id} keys whose row id
// indexes the successor ids. With both memos
// warm, expanding an edge is a copy of the source id row plus a few
// integer loads and stores; no component is cloned, stepped, rehashed, or
// canonicalized more than once per distinct (local state, action) pair in
// the whole exploration. Component states are touched only on a miss,
// through the table's id -> representative map.
//
// Beside each id's row sits its ENABLED CLASS: an interned id for what the
// id's tasks enable, by kind (enabledClass). A configuration's row of
// classes determines its partial-order-reduction decision, so the cache
// also memoizes the AMPLE DECISIONS on those class rows (ampleDecision).
// Every non-trivial PorPolicy of one System decides alike (see
// analysis/por.h), so the decisions are a function of the System too.
//
// Ids are TRUSTED: every id row handed to the cache must hold ids of the
// cache's own SlotCanonTable. StateGraph writes every row through that
// table; a SystemState from anywhere else enters the id space only through
// SlotCanonTable::canonicalize, which looks every slot up by content.
//
// A StateGraph constructed without a cache creates a private one: nothing
// outlives the graph. The analysis service (src/serve/) instead keeps one
// cache per service type and hands it to every job's StateGraph, so a warm
// job starts with the slot representatives, transition memos, action pool
// and ample decisions of its predecessors already populated.
//
// WHY SHARING IS SAFE (the serve cache-correctness argument; see DESIGN.md
// "Analysis service"):
//   - Every structure here, the pool and the decisions included, is an
//     insert-only append cache of pure functions of the (immutable, fully
//     built) ioa::System the cache was constructed for. A warm entry can
//     make a probe cheaper, never different: the memos key on the dense
//     slot ids of this cache's SlotCanonTable, which never reuses an id and
//     owns every representative (shared_ptr) while the cache lives, and on
//     class ids that the cache interns itself. Every id row a graph stores
//     is written through this table (StateGraph::intern looks a foreign
//     SystemState up slot by slot, by content), so an id issued by another
//     cache's table can never select a wrong row.
//   - A transition-memo entry is its action's index in the pool, and the
//     cache owns the pool, so the index cannot go stale across the graphs
//     that share the cache. The same holds for the ample decision ids a
//     graph keeps per reduced list.
//   - The action pool assigns indices in first-miss order. Two
//     explorations of the same system miss on the same entries in the
//     same order (the engines are deterministic), so a warm pool hands out
//     exactly the indices a cold one would. A stored edge is its 4-byte
//     target alone, and warm and cold graphs store the same targets and
//     re-derive the same task and pool index for every edge (asserted by
//     tests/serve/serve_cache_test).
//   - Nothing here is thread-safe. A cache must be used by at most one
//     exploration at a time; the service enforces this with exclusive
//     leases (serve::ServiceContextPool) whose mutex handoff also provides
//     the necessary happens-before between jobs on different worker
//     threads.
//
// The cache borrows the System, which must outlive it (the service caches
// the built System alongside the cache for exactly this reason).
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "analysis/row_table.h"
#include "ioa/system.h"
#include "util/id_index.h"

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

    // This snapshot minus an earlier one of the same cache. Every field is
    // monotone, so the difference is a well-formed Stats that satisfies
    // hits + misses == lookups whenever both endpoints do. Used to report
    // PER-GRAPH tallies of a cache shared across graphs (a service
    // cache).
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

  // step()'s result for a disabled task (never a pool index).
  static constexpr std::uint32_t kDisabled = static_cast<std::uint32_t>(-2);

  // The ample decision of one configuration (see analysis/por.h): its
  // ample and enabled task masks, and how many of its enabled actions
  // contradicted the declared task structure.
  struct AmpleDecision {
    std::uint64_t ample = 0;
    std::uint64_t enabled = 0;
    std::uint32_t violations = 0;
  };

  // `sys` must outlive the cache and be fully built (the task list is
  // snapshotted here).
  explicit TransitionCache(const ioa::System& sys);

  const ioa::System& system() const { return sys_; }
  // The slot hash-consing every id row of this cache is written through.
  ioa::SlotCanonTable& slotCanon() { return canon_; }
  const ioa::SlotCanonTable& slotCanon() const { return canon_; }

  const Stats& stats() const { return stats_; }
  // Memoized (owner slot state, task) entries.
  std::size_t size() const { return entryCount_; }
  // Slots per configuration: the length of every id row.
  std::size_t width() const { return rowSize_.size(); }

  // The action task #taskIndex (in sys.allTasks() order) enables in the
  // configuration `ids` (width() ids of this cache's table), or nullptr
  // when disabled: &actionAt(i) for the entry's pool index i. Builds no
  // successor; the pointer is stable until destruction. Counts as one
  // enabled-memo lookup.
  const ioa::Action* enabledAction(const std::uint32_t* ids,
                                   std::size_t taskIndex);

  // The pool index task #taskIndex enables in `ids`, or kDisabled, read
  // from an entry that step() or enabledClass() already filled: every
  // entry of a row the graph expanded or reduced. Not a memo lookup, so
  // uncounted: this is how edges re-derive their task and action.
  std::uint32_t filledAction(const std::uint32_t* ids,
                             std::size_t taskIndex) const {
    const std::uint32_t a =
        entries_[idInfo_[ids[ownerSlot_[taskIndex]]].row +
                 rowOffset_[taskIndex]]
            .action;
    assert(a != kUnknown && "filledAction on an unfilled memo entry");
    return a;
  }

  // The action pool: every distinct enabled action, interned on the miss
  // of the first entry that enables it. Indices are assigned in first-miss
  // order and never change; the deque keeps references stable (EdgeView
  // refers here).
  const ioa::Action& actionAt(std::uint32_t idx) const { return pool_[idx]; }
  std::size_t actionPoolSize() const { return pool_.size(); }
  // Shallow bytes of the pool and its intern index.
  std::uint64_t actionBytes() const {
    return pool_.size() * sizeof(ioa::Action) + poolIndex_.bytes();
  }

  // The ENABLED CLASS of the slot-`slot` id in `ids`: an interned id for
  // the tuple, over the tasks that slot owns (in allTasks() order), of
  // "disabled" or (ActionKind, invoked service for an Invoke) -- exactly
  // what the POR policy reads from an enabled action. Equal classes mean
  // equal tuples, so a row of classes determines every task's kind.
  // Computed on the id's first request (one enabled-memo lookup per task
  // the slot owns) and stored next to the id's entry row; a pure function
  // of the System, so it is safe in a shared memo.
  std::uint32_t enabledClass(const std::uint32_t* ids, std::size_t slot);

  // The id of the ample decision of the configuration `ids` (see
  // decisionAt), memoized on its row of enabled classes; `decide()`
  // computes it on the row's first request. A warm decision makes no heap
  // allocation.
  template <class Decide>
  std::uint32_t ampleDecision(const std::uint32_t* ids, Decide&& decide) {
    for (std::size_t k = 0; k < width(); ++k) {
      classRow_[k] = enabledClass(ids, k);
    }
    const RowTable::Probe p = decisionRows_.find(classRow_.data());
    if (p.id != RowTable::kNone) return p.id;
    decisions_.push_back(decide());
    return decisionRows_.insert(p, classRow_.data());
  }
  // The memoized decision `id`. Ids are dense and never reused, so a
  // graph may keep one per reduced list.
  const AmpleDecision& decisionAt(std::uint32_t id) const {
    return decisions_[id];
  }
  // The id ampleDecision() gave `ids`, read without filling anything;
  // RowTable::kNone when some slot's class or the decision is not
  // memoized yet. For self-checks.
  std::uint32_t findAmpleDecision(const std::uint32_t* ids) const;
  // Memoized ample decisions.
  std::size_t decisionCount() const { return decisions_.size(); }

  // If task #taskIndex is enabled in `ids`, writes the successor's id row
  // to next[0, width()) and returns the action's pool index. Returns
  // kDisabled, leaving `next` untouched, when disabled. `next` must not
  // alias `ids`.
  std::uint32_t step(const std::uint32_t* ids, std::size_t taskIndex,
                     std::uint32_t* next);

 private:
  static constexpr std::uint32_t kUnknown = static_cast<std::uint32_t>(-1);

  // One (owner id, task) memo entry, 16 bytes.
  struct Entry {
    std::uint32_t action = kUnknown;  // pool index, or kUnknown / kDisabled
    std::uint32_t ownerNext = ioa::kNoSlotId;  // id of the owner's successor
    std::uint32_t othersBegin = 0;        // into others_
    std::uint16_t othersCount = 0;
    bool ownerParticipates = false;
  };
  // Per slot id: the first entry of its row, and its enabled class.
  struct IdInfo {
    std::uint32_t row = kUnknown;
    std::uint32_t enabledClass = kUnknown;
  };

  // The entry of (owner id `id`, task), filled on a miss.
  std::uint32_t probe(std::uint32_t id, std::size_t taskIndex);
  // The id of representative `id` after `a` (the miss path: clone, apply,
  // hash, canonicalize).
  std::uint32_t successorId(std::uint32_t id, const ioa::Action& a);
  // Index of `a` in the pool, appending it on first sight.
  std::uint32_t internAction(ioa::Action&& a);

  const ioa::System& sys_;
  ioa::SlotCanonTable canon_;
  std::vector<std::uint32_t> ownerSlot_;  // per task index
  std::vector<std::uint32_t> rowOffset_;  // per task: index inside its row
  std::vector<std::uint32_t> rowSize_;    // per slot: tasks it owns
  std::vector<IdInfo> idInfo_;            // per id
  std::vector<Entry> entries_;            // rows, back to back
  std::deque<ioa::Action> pool_;          // stable: EdgeView refers here
  util::IdIndex poolIndex_{256};          // action hash -> pool index
  std::vector<std::uint32_t> others_;     // non-owner participant slots
  // The successor memo: {entry, participant id} keys, and by key id the
  // participant's successor id.
  RowTable nextKeys_{2};
  std::vector<std::uint32_t> nextIds_;
  std::size_t entryCount_ = 0;
  // Enabled classes: tuple -> class id (filled on an id's first request).
  std::map<std::vector<std::uint32_t>, std::uint32_t> classes_;
  // Ample decisions, keyed on class rows (decisions_[id] for row id).
  RowTable decisionRows_;
  std::vector<AmpleDecision> decisions_;
  std::vector<std::uint32_t> classRow_;  // ampleDecision()'s key scratch
  Stats stats_;
};

}  // namespace boosting::analysis
