// StateGraph: an explicit representation of (the reachable part of) the
// execution graph G(C) of Section 3.3.
//
// Vertices are system configurations (the paper's finite failure-free
// input-first executions are, under the determinism assumptions of
// Section 3.1, in one-to-one correspondence with the configurations they
// end in, which is why a state graph suffices); edges are labeled with the
// task that triggers the transition, exactly as in the paper's definition
// of G(C). Only FAILURE-FREE, locally controlled transitions are expanded:
// valence (Section 3.2) is defined over failure-free extensions.
//
// Node ids are canonical: a configuration is interned once, and the
// interning index resolves every probe to the existing node; successors
// are expanded lazily; the first-discovery parent of each node is kept so
// that witness executions (paths from an initialization to an interesting
// configuration) can be reconstructed.
//
// MEMORY LAYOUT (flat, pooled -- see DESIGN.md "Graph memory layout"):
//   - A configuration is stored as one fixed-stride ROW of u32 slot ids,
//     one per slot, issued by the memo's SlotCanonTable (ids are trusted:
//     every row is written through that table). Rows live in a RowTable
//     (analysis/row_table.h), in chunks that never relocate, so a row is
//     4 * partCount bytes and a row pointer stays valid while the graph
//     grows; the row's id in that table is its node id. Interning hashes
//     the row and compares rows with memcmp; TransitionCache steps row to
//     row. No SystemState is built on the exploration path (except under
//     --symmetry on, which materializes each successor into a scratch
//     state to canonicalize it).
//   - state(id) materializes a SystemState on first request into a side
//     store (counted in bytesStates) and returns the same object from then
//     on. Only cold paths call it: witness roots, hook endpoints,
//     classification, the gamma start, dot export and tests. Hot readers
//     use row() and slotState().
//   - A stored edge is its target NodeId alone, 4 bytes. Under the
//     determinism of Section 3.1 the action task t enables is a function
//     of the source row, and the transition cache's entry of (owner slot
//     id, t) already holds its action-pool index, so the edge label is
//     re-derived, not stored: a FULL list holds one edge per enabled task
//     (entry not kDisabled), in task order; a proper REDUCED list holds
//     one edge per set bit of its memoized ample decision's mask, in task
//     order. EdgeList's iterator walks the tasks alongside the targets and
//     reads each entry uncounted (TransitionCache::filledAction), so the
//     views keep their {task, action, to} shape. Successor lists append
//     into large fixed-capacity arena chunks (CSR-style; a list never
//     spans chunks, so a raw pointer+count names it), allocated
//     uninitialized: an edge slot is written before it is read.
//   - A first-discovery parent is its `from` node alone; pathTo re-derives
//     the task (see parentEdge).
//   - The interning index is the RowTable's util::IdIndex: 8-byte
//     {32-bit row hash, node} slots, one slot per node.
// Row chunks, edge chunks, the memo's entries and the action deque never
// move or change a filled value, so row pointers and EdgeList views stay
// valid across graph growth.
//
// CONCURRENCY CONTRACT (single writer): StateGraph is NOT thread-safe.
// intern(), successors(), reducedSuccessors(), successorVia() and the
// first state(id) of each node mutate the graph or its caches and must
// only be called from the thread that constructed the graph (debug builds
// assert this). state() is const but fills the materialization cache, so
// it is NOT a concurrent-safe read. Every exploration engine is serial and
// runs on the owning thread; the other const accessors (row(),
// slotState(), size(), cachedSuccessors(), pathTo(), rootOf()) are safe to
// call concurrently only while no writer is active.
#pragma once

#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "analysis/por.h"
#include "analysis/row_table.h"
#include "analysis/symmetry.h"
#include "analysis/transition_cache.h"
#include "ioa/system.h"

namespace boosting::analysis {

using NodeId = std::uint32_t;
inline constexpr NodeId kNoNode = static_cast<NodeId>(-1);

// Materialized edge with owning task/action copies. Returned by the path
// and lookup APIs (successorVia, pathTo); iteration over successor lists
// uses the non-owning EdgeView instead.
struct Edge {
  ioa::TaskId task;
  ioa::Action action;
  NodeId to = kNoNode;
};

// Non-owning view of one stored edge; task/action reference the system's
// task list and the memo's action pool (stable for the graph's lifetime).
struct EdgeView {
  const ioa::TaskId& task;
  const ioa::Action& action;
  NodeId to;
};

class StateGraph;

// Lightweight span view of a node's successor list: the stored targets,
// plus what re-derives each edge's task and action (the source row, and
// for a proper reduced list its ample mask). Valid for the graph's
// lifetime: the arena chunks, rows and pools it points into never
// relocate.
class EdgeList {
 public:
  class iterator {
   public:
    EdgeView operator*() const {
      return EdgeView{memo_->system().allTasks()[task_],
                      memo_->actionAt(action_), *cur_};
    }
    iterator& operator++() {
      if (++cur_ != end_) settle(task_ + 1);
      return *this;
    }
    bool operator==(const iterator& o) const { return cur_ == o.cur_; }
    bool operator!=(const iterator& o) const { return cur_ != o.cur_; }
    // The edge's task, as an index into System::allTasks(); its action's
    // index in the memo's pool; its target.
    std::size_t taskIndex() const { return task_; }
    std::uint32_t actionIndex() const { return action_; }
    NodeId to() const { return *cur_; }

   private:
    friend class EdgeList;
    iterator(const EdgeList& l, const NodeId* cur)
        : memo_(l.memo_), row_(l.row_), cur_(cur), end_(l.data_ + l.count_),
          ample_(l.ample_), reduced_(l.reduced_) {
      if (cur_ != end_) settle(0);
    }
    // Finds the task of the edge at cur_: the next set bit of a reduced
    // list's mask, or a full list's first enabled task at index >= `first`.
    void settle(std::size_t first);

    const TransitionCache* memo_;
    const std::uint32_t* row_;
    const NodeId* cur_;
    const NodeId* end_;
    std::uint64_t ample_;
    bool reduced_;
    std::size_t task_ = 0;
    std::uint32_t action_ = 0;
  };

  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  // The k-th edge; re-derives the tasks of edges 0..k (O(tasks)).
  EdgeView operator[](std::size_t k) const;
  // The stored targets; identity of the cached list (tests) and the
  // cheap walk for loops that read no task or action.
  const NodeId* data() const { return data_; }
  std::span<const NodeId> targets() const { return {data_, count_}; }
  iterator begin() const { return iterator(*this, data_); }
  iterator end() const { return iterator(*this, data_ + count_); }

 private:
  friend class StateGraph;
  EdgeList(const TransitionCache* memo, const std::uint32_t* row,
           const NodeId* data, std::uint32_t count, std::uint64_t ample,
           bool reduced)
      : memo_(memo), row_(row), data_(data), count_(count), ample_(ample),
        reduced_(reduced) {}
  const TransitionCache* memo_;
  const std::uint32_t* row_;
  const NodeId* data_;
  std::uint32_t count_;
  std::uint64_t ample_;  // the listed tasks of a proper reduced list
  bool reduced_;
};

class StateGraph {
 public:
  // Discovery tallies, maintained inline (plain increments, no
  // synchronization: single-writer contract) and flushed to an
  // obs::Registry by the owning engine. statesDiscovered counts fresh
  // interns and always equals size(); dedupHits counts intern probes that
  // resolved to an existing node; edgesDiscovered counts edges recorded by
  // successors(); expansions counts nodes whose full successor list was
  // computed.
  struct Stats {
    std::uint64_t statesDiscovered = 0;
    std::uint64_t dedupHits = 0;
    std::uint64_t edgesDiscovered = 0;
    std::uint64_t expansions = 0;
    // Reduced (POR) tier: nodes whose reduced successor list is a proper
    // ample subset / their stored edges; provisoFallbacks counts reduced
    // expansions the cycle proviso forced back to a full list.
    std::uint64_t reducedExpansions = 0;
    std::uint64_t reducedEdges = 0;
    std::uint64_t provisoFallbacks = 0;
  };

  // Shallow heap footprint of the graph's own structures, in bytes
  // (flushed to the obs registry as graph.bytes_*). bytesStates covers the
  // row chunks plus the materialized states of state() (their slot arrays;
  // component states are hash-consed in the memo's SlotCanonTable, so they
  // are not attributed here);
  // bytesEdges the edge arena chunks plus the action pool and its intern
  // table; bytesIndex the open-addressing node index, parent nodes and
  // per-node successor spans.
  struct MemoryStats {
    std::uint64_t bytesStates = 0;
    std::uint64_t bytesEdges = 0;
    std::uint64_t bytesIndex = 0;
    std::uint64_t total() const { return bytesStates + bytesEdges + bytesIndex; }
  };

  // With a non-trivial `symmetry`, every interned state is first replaced
  // by its orbit representative, so the graph is the quotient of G(C) by
  // the process-permutation group (see analysis/symmetry.h); nullptr or a
  // trivial policy interns every configuration as is.
  // With a non-trivial `por`, the graph additionally maintains a REDUCED
  // successor tier (see exploreSuccessors below); the full tier and every
  // other accessor are unaffected.
  // With a non-null `memo`, the graph shares that transition cache (its
  // slot canon table, transition memos, action pool and ample decisions)
  // instead of creating a private one -- the analysis service's cross-job
  // warm start (see analysis/transition_cache.h for the safety argument).
  // The cache and the POR policy must have been built for the SAME System
  // object (validated), and the cache must not be used by another graph
  // concurrently (single-writer, like the graph itself). Null means a
  // private cache that dies with the graph.
  explicit StateGraph(const ioa::System& sys,
                      std::shared_ptr<const SymmetryPolicy> symmetry = nullptr,
                      std::shared_ptr<const PorPolicy> por = nullptr,
                      std::shared_ptr<TransitionCache> memo = nullptr);

  // Edges per arena chunk. Power of two: a global edge position is
  // (chunk << kEdgeChunkShift) | offset. It must exceed allTasks().size()
  // so one node's list always fits (validateTaskCapacity).
  static constexpr std::uint32_t kEdgeChunkShift = 15;
  static constexpr std::uint32_t kEdgeChunkCapacity = 1u << kEdgeChunkShift;

  // Checked bounds of the task count: the hook scans record a 16-bit task
  // index per visited node, and one node's successor list must fit a
  // single arena chunk of `chunkCapacity` edges. Throws
  // std::invalid_argument naming the violated bound; called by the
  // constructor with kEdgeChunkCapacity (the candidate zoo can produce big
  // task sets, so this is a runtime check, not an assert).
  static void validateTaskCapacity(std::size_t taskCount,
                                   std::uint32_t chunkCapacity);

  const ioa::System& system() const { return sys_; }

  // The symmetry policy interning quotients by; nullptr when constructed
  // without one (callers treat nullptr and trivial() alike).
  const SymmetryPolicy* symmetryPolicy() const { return symmetry_.get(); }
  // True when interning actually canonicalizes (non-trivial group).
  bool symmetryActive() const { return symmetry_ && !symmetry_->trivial(); }

  // The partial-order-reduction policy, if any (see analysis/por.h).
  const PorPolicy* porPolicy() const { return por_.get(); }
  // True when exploreSuccessors() actually reduces.
  bool porActive() const { return por_ && !por_->trivial(); }

  const Stats& stats() const { return stats_; }
  MemoryStats memoryStats() const;

  // Tallies of the TransitionCache that successors() expands edges
  // through. Reported as a delta since THIS graph's
  // construction, so a graph on a warm shared memo still reports per-run
  // numbers -- warm entries populated by earlier jobs show up as hits.
  TransitionCache::Stats transitionStats() const {
    return memo_->stats().deltaSince(transitionsBase_);
  }

  // The transition cache backing this graph's canon table, memos and
  // action pool: the graph's own private one, or the injected shared one.
  const std::shared_ptr<TransitionCache>& memo() const { return memo_; }

  // Structural self-check, used to assert that abort paths (a throwing
  // expansion hook, a truncated exploration) never leave the graph
  // half-mutated. Verifies parallel-array sizes, stats/size agreement, the
  // row store (one row per node, every id issued by the memo's table for
  // that slot), the node index (every node in exactly one slot, reachable
  // from its home slot), edge-target bounds, each list's count against
  // what re-derives its tasks (the enabled tasks of a full list, the
  // memoized ample mask of a reduced one), and that every parent's lists
  // reach its node. Returns false and (when `why` is non-null) a
  // diagnostic on the first violation.
  bool checkConsistent(std::string* why = nullptr) const;

  // Canonical node id for `s` (inserted if new). `s` may come from
  // anywhere -- another graph, another memo, a simulation: every slot is
  // looked up by content in this graph's SlotCanonTable.
  NodeId intern(const ioa::SystemState& s);

  // The configuration of node `id`, materialized from its row on first
  // request (see the layout note above). The reference stays valid, at
  // the same address, for the graph's lifetime.
  const ioa::SystemState& state(NodeId id) const;
  std::size_t size() const { return rows_.size(); }

  // Slots per configuration (ids per row).
  std::size_t width() const { return width_; }
  // Node `id`'s row: width() slot ids of memo()->slotCanon(). Stable
  // address for the graph's lifetime.
  const std::uint32_t* row(NodeId id) const { return rows_.row(id); }
  // The component state at `slot` of node `id`, read through the memo's
  // representatives (no materialization).
  const ioa::AutomatonState& slotState(NodeId id, std::size_t slot) const {
    return *memo_->slotCanon().rep(row(id)[slot]).state;
  }

  // All failure-free locally controlled transitions out of `id` (lazily
  // computed, cached). One edge per applicable task (determinism). The
  // returned view stays valid across further graph growth.
  EdgeList successors(NodeId id);

  // The cached successor list, or nullopt if `id` has not been expanded
  // yet. Never triggers expansion, so it is const (and safe to call while
  // no writer is active).
  std::optional<EdgeList> cachedSuccessors(NodeId id) const;

  // -- Reduced (ample-set) successor tier ---------------------------------
  // The exploration engines' expansion entry point: reducedSuccessors()
  // when porActive(), the full successors() otherwise. The full tier --
  // and with it hook search, successorVia, dot export -- never depends on
  // the reduced one.
  EdgeList exploreSuccessors(NodeId id) {
    return porActive() ? reducedSuccessors(id) : successors(id);
  }

  // The ample subset of `id`'s transitions (lazily computed, cached). Only
  // ample successor STATES are interned -- skipping the rest is the whole
  // reduction -- so the full tier of a reduced node stays unexpanded until
  // someone (the hook walk) asks for it. When the policy yields no proper
  // ample set, or the cycle proviso rejects it (no ample target is fresh:
  // every one is the node itself or already reduced-expanded -- the BFS
  // ignoring-check, see DESIGN.md), the node is expanded fully and the
  // reduced tier aliases the full list.
  EdgeList reducedSuccessors(NodeId id);

  // The cached reduced list (resolving a full-tier alias), or nullopt if
  // `id` has not been reduced-expanded. Const, like cachedSuccessors().
  std::optional<EdgeList> cachedReducedSuccessors(NodeId id) const;

  // The unique successor of `id` by task #taskIndex (an index into
  // System::allTasks()), if that task is applicable: the edge at the
  // task's rank among the enabled tasks of the full list.
  std::optional<Edge> successorVia(NodeId id, std::size_t taskIndex);
  // The same by task value.
  std::optional<Edge> successorVia(NodeId id, const ioa::TaskId& e);

  // Path of edges from the oldest known ancestor (an interned root) to
  // `id`, following first-discovery parents. Throws std::logic_error when
  // the chain meets a node discovered by an expansion that threw and not
  // reached by a committed list since (an orphan); rootOf() alike.
  std::vector<Edge> pathTo(NodeId id) const;

  // The parentless ancestor reached by following first-discovery parents.
  NodeId rootOf(NodeId id) const;

  // Pool accessors backing EdgeView (also handy for tests/export).
  const ioa::TaskId& taskAt(std::size_t idx) const {
    return sys_.allTasks()[idx];
  }
  const ioa::Action& actionAt(std::uint32_t idx) const {
    return memo_->actionAt(idx);
  }
  // Distinct actions interned so far (every edge's re-derived action is
  // one of these; on a shared memo the pool may hold more actions than
  // this graph's edges reference).
  std::size_t actionPoolSize() const { return memo_->actionPoolSize(); }

 private:
  // Per-node successor span: global arena position of the first edge (or
  // kUnexpanded) and, for the full tier, the edge count. A proper reduced
  // list keeps its ample decision's id (TransitionCache::decisionAt) in
  // place of the count, which is the mask's popcount. Expanded-but-empty
  // lists keep a valid begin with count 0.
  struct SuccIndex {
    std::uint32_t begin = kUnexpanded;
    std::uint32_t count = 0;  // full tier: edges; reduced tier: decision id
  };
  static constexpr std::uint32_t kUnexpanded = static_cast<std::uint32_t>(-1);
  // Reduced-tier sentinel: the list is the node's full successor list
  // (proviso fallback / no proper ample set). Never a valid arena
  // position: runs are bounded by the chunk count.
  static constexpr std::uint32_t kAliasFull = static_cast<std::uint32_t>(-2);
  // Parent of a node discovered by an expansion that threw: no committed
  // list reaches it, so its discovering edge cannot be re-derived. The
  // next committed list that reaches it adopts it.
  static constexpr NodeId kOrphan = kNoNode - 1;

  // Intern result: `inserted` distinguishes first discovery from a lookup
  // hit, which is what decides whether a first-discovery parent may be
  // attached.
  struct InternResult {
    NodeId id = kNoNode;
    bool inserted = false;
  };

  void assertWriter() const;

  // Records `from` as the parent of `r.id` when `r` inserted it (or it is
  // an orphan), remembering it in discovered_ for orphanDiscovered().
  void noteDiscovery(const InternResult& r, NodeId from);
  // The expansion in progress will not commit (it threw, or the proviso
  // rejected it): the nodes it discovered become orphans.
  void orphanDiscovered();
  [[noreturn]] static void throwOrphan(const char* what, NodeId id);
  // The edge that first discovered `id` (which must have a parent): the
  // first edge reaching `id` in the earliest expanded list of its parent.
  // An expansion interns its targets in list order, and arena positions
  // grow over time, so that is the edge whose interning inserted `id`.
  Edge parentEdge(NodeId id) const;

  // Interning of a row of this memo's ids that already is its orbit
  // representative (or no symmetry policy is active). `ids` must not
  // point into the row store.
  InternResult internRow(const std::uint32_t* ids);
  // Interning of a successor row: under an active symmetry policy it is
  // materialized into a scratch state and replaced by its orbit
  // representative first.
  InternResult internSuccessor(const std::uint32_t* ids);

  // Reserve a contiguous run of up to `need` edge slots in the arena
  // (starting a fresh chunk when the current tail cannot fit the run) and
  // return its base; commit happens by bumping edgeUsed_ with the actual
  // count. Non-reentrant: one run is open at a time (expansion never
  // recurses into expansion).
  NodeId* reserveEdgeRun(std::uint32_t need, std::uint32_t* base);
  const NodeId* edgeAt(std::uint32_t pos) const {
    return edgeChunks_[pos >> kEdgeChunkShift].get() +
           (pos & (kEdgeChunkCapacity - 1));
  }
  // Node `id`'s full list (cached) and its proper reduced list (begin is
  // an arena position).
  EdgeList fullList(NodeId id) const {
    const SuccIndex& si = succ_[id];
    return EdgeList(memo_.get(), row(id),
                    si.count ? edgeAt(si.begin) : nullptr, si.count, 0,
                    false);
  }
  EdgeList reducedList(NodeId id) const {
    const SuccIndex& si = reducedSucc_[id];
    const std::uint64_t ample = memo_->decisionAt(si.count).ample;
    const auto count = static_cast<std::uint32_t>(std::popcount(ample));
    return EdgeList(memo_.get(), row(id), count ? edgeAt(si.begin) : nullptr,
                    count, ample, true);
  }

  const ioa::System& sys_;
  std::shared_ptr<const SymmetryPolicy> symmetry_;
  std::shared_ptr<const PorPolicy> por_;
  std::size_t width_ = 0;  // slots per configuration
  // Row store and interning index (see the layout note).
  RowTable rows_;
  // state()'s materialized configurations. Node-based, so a returned
  // reference survives rehashing.
  mutable std::unordered_map<NodeId, ioa::SystemState> materialized_;
  std::vector<SuccIndex> succ_;
  // Reduced tier (parallel to succ_; only populated when porActive()):
  // begin is an arena position, kAliasFull, or kUnexpanded.
  std::vector<SuccIndex> reducedSucc_;
  // First-discovery parent per node, kNoNode for a root (or kOrphan).
  std::vector<NodeId> parent_;
  // Nodes the expansion in progress discovered (scratch).
  std::vector<NodeId> discovered_;

  // One arena chunk of kEdgeChunkCapacity edges; chunks never relocate.
  using EdgeChunk = std::unique_ptr<NodeId[]>;

  // Edge arena: fixed-capacity chunks that never relocate; successor lists
  // are contiguous runs inside one chunk. edgeUsed_ is the tail of the
  // last chunk; edgeSlackSlots_ counts the slots wasted at chunk tails
  // when a run would not fit.
  std::vector<EdgeChunk> edgeChunks_;
  std::uint32_t edgeUsed_ = kEdgeChunkCapacity;  // forces the first chunk
  std::uint64_t edgeSlackSlots_ = 0;

  // Slot hash-consing, transition memos, action pool and ample decisions:
  // private by default, shared across jobs when the service injects a warm
  // cache (see analysis/transition_cache.h). Single-writer either way.
  std::shared_ptr<TransitionCache> memo_;
  // The shared cache's tallies at this graph's construction, so
  // transitionStats() stays per-graph on a warm memo.
  TransitionCache::Stats transitionsBase_;
  // Successor and canonical id rows, and under symmetry the scratch state
  // a successor row is materialized into; reused across expansions.
  std::vector<std::uint32_t> nextIds_;
  std::vector<std::uint32_t> canonIds_;
  ioa::SystemState symScratch_;
  Stats stats_;
#ifndef NDEBUG
  std::thread::id writer_;  // single-writer expectation, asserted in debug
#endif
};

inline void EdgeList::iterator::settle(std::size_t first) {
  if (reduced_) {
    // The listed tasks are the mask's bits; ample_ keeps those not yet
    // reached.
    task_ = static_cast<std::size_t>(std::countr_zero(ample_));
    ample_ &= ample_ - 1;
    action_ = memo_->filledAction(row_, task_);
    return;
  }
  for (task_ = first;; ++task_) {
    action_ = memo_->filledAction(row_, task_);
    if (action_ != TransitionCache::kDisabled) return;
  }
}

inline EdgeView EdgeList::operator[](std::size_t k) const {
  iterator it = begin();
  while (k-- > 0) ++it;
  return *it;
}

}  // namespace boosting::analysis
