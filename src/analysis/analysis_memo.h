// AnalysisMemo: the process-lifetime substructure of an exploration that
// is a pure function of the SYSTEM, not of any one run -- the hash-consed
// slot representatives (SlotCanonTable) and the memoized component
// transitions over them (TransitionCache), whose entries are indices into
// the cache's interned action pool.
//
// A StateGraph constructed without a memo creates a private one: nothing
// outlives the graph. The analysis
// service (src/serve/) instead keeps one memo per service type and hands
// it to every job's StateGraph, so a warm job starts with the slot
// representatives, transition memos and action pool of its predecessors
// already populated.
//
// WHY SHARING IS SAFE (the serve cache-correctness argument; see DESIGN.md
// "Analysis service"):
//   - Both structures, the pool included, are insert-only append caches
//     of pure functions of the (immutable, fully built) ioa::System the
//     memo was constructed for. A warm entry can make a probe cheaper, never
//     different: TransitionCache keys its rows on the dense slot ids of
//     this memo's SlotCanonTable, which never reuses an id and owns every
//     representative (shared_ptr) while the memo lives. Every id row a
//     graph stores is written through this table (StateGraph::intern
//     looks a foreign SystemState up slot by slot, by content), so an id
//     issued by another memo's table can never select a wrong row.
//   - A transition-memo entry is its action's index in the pool, and the
//     cache owns the pool, so the index cannot go stale across the graphs
//     that share the memo.
//   - The action pool assigns indices in first-miss order. Two
//     explorations of the same system miss on the same entries in the
//     same order (the engines are deterministic), so a warm pool hands out
//     exactly the indices a cold one would -- warm and cold CompactEdges
//     are bit-identical (asserted by tests/serve/serve_cache_test).
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

  // The transition cache's action pool: indices are assigned in first-miss
  // order and never change.
  const ioa::Action& actionAt(std::uint32_t idx) const {
    return transitions_.actionAt(idx);
  }
  // Distinct actions interned so far, across every graph that shared this
  // memo (a graph's edges reference a subset).
  std::size_t actionPoolSize() const { return transitions_.actionPoolSize(); }
  // Shallow bytes of the pool and its intern table (memory attribution;
  // reported by every sharing graph, so under the service the same bytes
  // appear in each job's graph.bytes_edges -- they are real either way).
  std::uint64_t actionBytes() const { return transitions_.actionBytes(); }

 private:
  const ioa::System& sys_;
  // Slot hash-consing; single-writer (see the lease contract above).
  ioa::SlotCanonTable slotCanon_;
  // Memoized component transitions over the canonical slots (declared
  // after slotCanon_: construction order).
  TransitionCache transitions_;
};

}  // namespace boosting::analysis
