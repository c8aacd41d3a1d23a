// AnalysisMemo: the process-lifetime substructure of an exploration that
// is a pure function of the SYSTEM, not of any one run -- the hash-consed
// slot representatives (SlotCanonTable), the memoized component
// transitions over them (TransitionCache), and the interned action pool.
//
// A StateGraph constructed without a memo creates a private one, which is
// the exact legacy behaviour: nothing outlives the graph. The analysis
// service (src/serve/) instead keeps one memo per service type and hands
// it to every job's StateGraph, so a warm job starts with the slot
// representatives, transition memos and action pool of its predecessors
// already populated.
//
// WHY SHARING IS SAFE (the serve cache-correctness argument; see DESIGN.md
// "Analysis service"):
//   - All three structures are insert-only append caches of pure
//     functions of the (immutable, fully built) ioa::System the memo was
//     constructed for. A warm entry can make a probe cheaper, never
//     different: TransitionCache keys its rows on the dense slot ids of
//     this memo's SlotCanonTable, which never reuses an id and owns every
//     representative (shared_ptr) while the memo lives. An id a state
//     carries is only trusted when the cache's own id -> representative
//     map sends it back to the slot's pointer, so ids issued by another
//     memo's table can never select a wrong row.
//   - A memoized transition caches its action's index in this memo's
//     pool; cache and pool live and die together, so the index cannot go
//     stale across the graphs that share the memo.
//   - The action pool assigns indices in first-intern order. Two
//     explorations of the same system present actions in the same order
//     (the engines are deterministic), so a warm pool hands out exactly
//     the indices a cold one would -- warm and cold CompactEdges are
//     bit-identical (asserted end to end by tests/serve/serve_cache_test).
//   - None of the structures is thread-safe. A memo must be used by at
//     most one exploration at a time; the service enforces this with
//     exclusive leases (serve::ServiceContextPool) whose mutex handoff
//     also provides the necessary happens-before between jobs on
//     different worker threads.
//
// The memo borrows the System, which must outlive it (the service caches
// the built System alongside the memo for exactly this reason).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "analysis/transition_cache.h"
#include "ioa/system.h"

namespace boosting::analysis {

class AnalysisMemo {
 public:
  explicit AnalysisMemo(const ioa::System& sys);

  const ioa::System& system() const { return sys_; }
  ioa::SlotCanonTable& slotCanon() { return slotCanon_; }
  const ioa::SlotCanonTable& slotCanon() const { return slotCanon_; }
  TransitionCache& transitions() { return transitions_; }
  const TransitionCache& transitions() const { return transitions_; }

  // Intern `a` into the pool (idempotent) and return its index. Indices
  // are assigned in first-intern order and never change.
  std::uint32_t internAction(const ioa::Action& a);
  const ioa::Action& actionAt(std::uint32_t idx) const { return pool_[idx]; }
  // Distinct actions interned so far, across every graph that shared this
  // memo (a graph's edges reference a prefix-closed subset).
  std::size_t actionPoolSize() const { return pool_.size(); }
  // Shallow bytes of the pool and its intern table (memory attribution;
  // reported by every sharing graph, so under the service the same bytes
  // appear in each job's graph.bytes_edges -- they are real either way).
  std::uint64_t actionBytes() const {
    return pool_.size() * sizeof(ioa::Action) +
           table_.capacity() * sizeof(Slot);
  }

 private:
  static constexpr std::uint32_t kNoAction = static_cast<std::uint32_t>(-1);
  struct Slot {
    std::size_t hash = 0;
    std::uint32_t idx = kNoAction;
  };

  void growTable(std::size_t newCap);

  const ioa::System& sys_;
  // Slot hash-consing; single-writer (see the lease contract above).
  ioa::SlotCanonTable slotCanon_;
  // Memoized component transitions over the canonical slots (declared
  // after slotCanon_: construction order).
  TransitionCache transitions_;
  // Action intern pool (deque: stable references for EdgeView) plus its
  // linear-probe open-addressing index.
  std::deque<ioa::Action> pool_;
  std::vector<Slot> table_;
  std::size_t count_ = 0;
};

}  // namespace boosting::analysis
