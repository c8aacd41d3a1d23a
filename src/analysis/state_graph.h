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
// States are interned by hash with full equality verification, so node ids
// are canonical; successors are expanded lazily; the first-discovery parent
// of each node is kept so that witness executions (paths from an
// initialization to an interesting configuration) can be reconstructed.
//
// MEMORY LAYOUT (flat, pooled -- see DESIGN.md "Graph memory layout"): the
// same action payload repeats across thousands of edges, so actions are
// deduplicated once into an intern pool and a stored edge is a 12-byte
// CompactEdge{action idx, target, task idx}. Successor lists append into
// large fixed-capacity arena chunks (CSR-style; a list never spans chunks,
// so a raw pointer+count names it) instead of one heap vector per node,
// and the interning index is a linear-probe open-addressing table of
// (hash, chain head) replacing the node-allocating unordered_map. Chunks
// and the action deque never relocate, so EdgeList views stay valid across
// graph growth exactly like the old per-node vectors did.
//
// CONCURRENCY CONTRACT (single writer): StateGraph is NOT thread-safe.
// intern(), successors(), reducedSuccessors() and successorVia() mutate the
// lazy caches and must only be called from the thread that constructed the
// graph (debug builds assert this). Every exploration engine is serial and
// runs on that thread; the const accessors (state(), size(),
// cachedSuccessors(), pathTo(), rootOf()) are safe to call concurrently
// only while no writer is active.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "analysis/analysis_memo.h"
#include "analysis/pager.h"
#include "analysis/por.h"
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

// Stored form of an edge: indices into the graph's task table and action
// intern pool plus the target node. 12 bytes, trivially copyable.
struct CompactEdge {
  std::uint32_t action = 0;  // index into the action intern pool
  NodeId to = kNoNode;
  std::uint16_t task = 0;  // index into System::allTasks()
};
static_assert(sizeof(CompactEdge) <= 12, "CompactEdge grew past 12 bytes");

// Non-owning view of one stored edge; task/action reference the graph's
// pools (stable for the graph's lifetime).
struct EdgeView {
  const ioa::TaskId& task;
  const ioa::Action& action;
  NodeId to;
};

class StateGraph;

// Out-of-core configuration for StateGraph's edge arenas (see DESIGN.md
// "Out-of-core exploration"). The default -- no budget -- keeps the exact
// in-memory arena behaviour of the unbounded build.
struct SpillConfig {
  // Hot-tier budget in bytes for the cold chunk mappings. 0 = fully
  // in-memory: no pager, no spill file, heap-allocated chunks.
  std::uint64_t memoryBudgetBytes = 0;
  // Directory for the unlinked spill file ("" = $TMPDIR, else /tmp).
  std::string spillDir;
  // Edge chunk shift override (chunk capacity = 1 << shift edges). 0 =
  // auto: the unbounded default of 15, or budget-scaled under a budget so
  // small bounded runs still demote whole chunks. Explicit values must lie
  // in [6, 20] and still fit one full successor list (validated).
  std::uint32_t edgeChunkShift = 0;
  // Test seams, forwarded to Pager::Config (0 = never fail).
  std::uint64_t failDemoteAfter = 0;
  std::uint64_t failEvictAfter = 0;
};

// Lightweight span view of a node's successor list. Valid for the graph's
// lifetime: the arena chunks and pools it points into never relocate.
class EdgeList {
 public:
  class iterator {
   public:
    EdgeView operator*() const;
    iterator& operator++() {
      ++cur_;
      return *this;
    }
    bool operator==(const iterator& o) const { return cur_ == o.cur_; }
    bool operator!=(const iterator& o) const { return cur_ != o.cur_; }

   private:
    friend class EdgeList;
    iterator(const StateGraph* g, const CompactEdge* cur) : g_(g), cur_(cur) {}
    const StateGraph* g_;
    const CompactEdge* cur_;
  };

  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  EdgeView operator[](std::size_t k) const;
  // The underlying storage; identity of the cached list (tests) and index
  // access without view materialization.
  const CompactEdge* data() const { return data_; }
  iterator begin() const { return iterator(g_, data_); }
  iterator end() const { return iterator(g_, data_ + count_); }

 private:
  friend class StateGraph;
  EdgeList(const StateGraph* g, const CompactEdge* data, std::uint32_t count)
      : g_(g), data_(data), count_(count) {}
  const StateGraph* g_;
  const CompactEdge* data_;
  std::uint32_t count_;
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
  // state deque and per-state slot arrays (component states behind the COW
  // pointers are shared and hash-consed, so they are not attributed here);
  // bytesEdges the edge arena chunks plus the action pool and its intern
  // table; bytesIndex the open-addressing node index, hash chains, parent
  // records and per-node successor spans.
  struct MemoryStats {
    std::uint64_t bytesStates = 0;
    std::uint64_t bytesEdges = 0;
    std::uint64_t bytesIndex = 0;
    std::uint64_t total() const { return bytesStates + bytesEdges + bytesIndex; }
  };

  // With a non-trivial `symmetry`, every interned state is first replaced
  // by its orbit representative, so the graph is the quotient of G(C) by
  // the process-permutation group (see analysis/symmetry.h); nullptr or a
  // trivial policy preserves the exact legacy graph.
  // With a non-trivial `por`, the graph additionally maintains a REDUCED
  // successor tier (see exploreSuccessors below); the full tier and every
  // legacy accessor are unaffected.
  // With a non-zero `spill.memoryBudgetBytes`, sealed edge-arena chunks
  // demote to an mmap-backed unlinked spill file and an LRU keeps at most
  // a budget's worth of cold mappings resident; node ids, intern indices
  // and successor lists are bit-identical to the unbounded build (the
  // remap preserves both addresses and contents).
  // With a non-null `memo`, the graph shares that memo's slot canon table,
  // transition cache and action pool instead of creating private ones --
  // the analysis service's cross-job warm start (see
  // analysis/analysis_memo.h for the safety argument). The memo must have
  // been built for the SAME System object (validated) and must not be used
  // by another graph concurrently (single-writer, like the graph itself).
  // Null preserves the legacy behaviour exactly: a private memo that dies
  // with the graph.
  explicit StateGraph(const ioa::System& sys,
                      std::shared_ptr<const SymmetryPolicy> symmetry = nullptr,
                      std::shared_ptr<const PorPolicy> por = nullptr,
                      const SpillConfig& spill = {},
                      std::shared_ptr<AnalysisMemo> memo = nullptr);

  // Checked narrowing for the compact edge encoding: every stored edge
  // carries a 16-bit task index and one node's successor list must fit a
  // single arena chunk. Throws std::invalid_argument naming the violated
  // bound; called by the constructor (the candidate zoo can produce big
  // task sets, so this is a runtime check, not an assert).
  static void validateTaskCapacity(std::size_t taskCount,
                                   std::uint32_t chunkCapacity);

  // The chunk shift a SpillConfig resolves to: the explicit override when
  // non-zero (validated to [6, 20]), else the unbounded default of 15,
  // else -- under a budget -- a budget-scaled power of two in [8, 15] so
  // the LRU has ~16 chunks of headroom. Exposed for tests and benches.
  static std::uint32_t resolveEdgeChunkShift(const SpillConfig& spill);

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

  // True when a memory budget is active (cold tier + spill file exist).
  bool spillActive() const { return pager_ != nullptr; }
  // Cold-tier tallies (all zero without a budget).
  Pager::Stats spillStats() const {
    return pager_ ? pager_->stats() : Pager::Stats{};
  }
  // The pager itself, for tests (nullptr without a budget).
  const Pager* pager() const { return pager_.get(); }
  // Resolved edges-per-chunk of this graph's arena.
  std::uint32_t edgeChunkCapacity() const { return chunkCapacity_; }

  // Tallies of the TransitionCache that successors() expands edges
  // through. Reported as a delta since THIS graph's
  // construction, so a graph on a warm shared memo still reports per-run
  // numbers -- warm entries populated by earlier jobs show up as hits.
  TransitionCache::Stats transitionStats() const {
    return memo_->transitions().stats().deltaSince(transitionsBase_);
  }

  // The memo backing this graph's canon table, transition cache and
  // action pool: the graph's own private one, or the injected shared one.
  const std::shared_ptr<AnalysisMemo>& memo() const { return memo_; }

  // Structural self-check, used to assert that abort paths (a throwing
  // expansion hook, a failing spill demote, a truncated exploration) never
  // leave the graph half-mutated. Verifies parallel-array sizes, stats/size
  // agreement, the hash-chain partition, and edge-target/pool-index
  // bounds. Returns false and (when `why` is non-null) a diagnostic on the
  // first violation.
  bool checkConsistent(std::string* why = nullptr) const;

  // Canonical node id for `s` (inserted if new).
  NodeId intern(const ioa::SystemState& s);

  // Interning with a precomputed hash (must equal s.hash()); the rvalue
  // overload moves the state into the graph when it is new. `inserted`
  // distinguishes first discovery from a lookup hit, which is what decides
  // whether a first-discovery parent may be attached.
  struct InternResult {
    NodeId id = kNoNode;
    bool inserted = false;
  };
  InternResult internWithHash(const ioa::SystemState& s, std::size_t hash);
  InternResult internWithHash(ioa::SystemState&& s, std::size_t hash);

  const ioa::SystemState& state(NodeId id) const { return states_[id]; }
  std::size_t size() const { return states_.size(); }

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

  // The unique e-successor of `id`, if task e is applicable.
  std::optional<Edge> successorVia(NodeId id, const ioa::TaskId& e);

  // Path of edges from the oldest known ancestor (an interned root) to
  // `id`, following first-discovery parents.
  std::vector<Edge> pathTo(NodeId id) const;

  // The parentless ancestor reached by following first-discovery parents.
  NodeId rootOf(NodeId id) const;

  // Pool accessors backing EdgeView (also handy for tests/export).
  const ioa::TaskId& taskAt(std::uint16_t idx) const {
    return sys_.allTasks()[idx];
  }
  const ioa::Action& actionAt(std::uint32_t idx) const {
    return memo_->actionAt(idx);
  }
  // Distinct actions interned so far (every stored edge and parent record
  // references one of these; on a shared memo the pool may hold more
  // actions than this graph's edges reference).
  std::size_t actionPoolSize() const { return memo_->actionPoolSize(); }

 private:
  // Compact first-discovery parent: the action is interned in the same
  // pool as the edges, so a parent record is 12 bytes instead of carrying
  // a full Action payload.
  struct Parent {
    NodeId from = kNoNode;
    std::uint32_t action = 0;
    std::uint16_t task = 0;
  };

  // One slot of the open-addressing node index: the head of the intrusive
  // same-hash chain through nextSameHash_. head == kNoNode marks an empty
  // slot (no deletions, so no tombstones).
  struct IndexSlot {
    std::size_t hash = 0;
    NodeId head = kNoNode;
  };

  // Per-node successor span: global arena position of the first edge (or
  // kUnexpanded) and edge count. Expanded-but-empty lists keep a valid
  // begin with count 0.
  struct SuccIndex {
    std::uint32_t begin = kUnexpanded;
    std::uint32_t count = 0;
  };
  static constexpr std::uint32_t kUnexpanded = static_cast<std::uint32_t>(-1);
  // Reduced-tier sentinel: the list is the node's full successor list
  // (proviso fallback / no proper ample set). Never a valid arena
  // position: runs are bounded by the chunk count.
  static constexpr std::uint32_t kAliasFull = static_cast<std::uint32_t>(-2);
  // Default edges-per-chunk shift of the unbounded build. Power of two: a
  // global edge position is (chunk << chunkShift_) | offset. The resolved
  // capacity must exceed allTasks().size() (validateTaskCapacity, checked
  // in the constructor) so one node's list always fits.
  static constexpr std::uint32_t kDefaultEdgeChunkShift = 15;

  void assertWriter() const;

  // Interning that skips orbit canonicalization: `s` already is its orbit
  // representative (or no symmetry policy is active).
  InternResult internPrecanonicalized(ioa::SystemState&& s, std::size_t hash);

  // Reserve a contiguous run of up to `need` edge slots in the arena
  // (starting a fresh chunk when the current tail cannot fit the run) and
  // return its base; commit happens by bumping edgeUsed_ with the actual
  // count. Non-reentrant: one run is open at a time (expansion never
  // recurses into expansion).
  CompactEdge* reserveEdgeRun(std::uint32_t need, std::uint32_t* base);
  const CompactEdge* edgeAt(std::uint32_t pos) const {
    return edgeChunks_[pos >> chunkShift_].data +
           (pos & (chunkCapacity_ - 1));
  }
  EdgeList listAt(const SuccIndex& si) const {
    // Cold-tier accounting rides on list access (one touch per list, not
    // per edge): every read path materializes lists through here, while
    // raw edgeAt stays free of pager bookkeeping for the self-check.
    if (pager_ && si.count) touchChunkForRead(si.begin >> chunkShift_);
    return EdgeList(this, si.count ? edgeAt(si.begin) : nullptr, si.count);
  }
  void touchChunkForRead(std::uint32_t chunk) const;

  // The action's pool index, cached on the memoized transition so later
  // edges with this transition skip hashing the action. The memo's cache
  // and pool live and die together, so the cached index never goes stale.
  std::uint32_t internAction(TransitionCache::Transition& t) {
    if (t.poolIndex == TransitionCache::kNoPoolIndex) {
      t.poolIndex = memo_->internAction(t.action);
    }
    return t.poolIndex;
  }
  std::size_t findIndexSlot(std::size_t hash) const;
  void growIndex(std::size_t newCap);

  const ioa::System& sys_;
  std::shared_ptr<const SymmetryPolicy> symmetry_;
  std::shared_ptr<const PorPolicy> por_;
  std::deque<ioa::SystemState> states_;  // stable storage
  std::vector<SuccIndex> succ_;
  // Reduced tier (parallel to succ_; only populated when porActive()):
  // begin is an arena position, kAliasFull, or kUnexpanded.
  std::vector<SuccIndex> reducedSucc_;
  std::vector<Parent> parent_;

  // One arena chunk: heap-owned in the unbounded build, a pager mapping
  // under a memory budget. `data` is the storage either way; chunks never
  // relocate (the pager remaps in place on demotion).
  struct EdgeChunk {
    std::unique_ptr<CompactEdge[]> heap;
    CompactEdge* data = nullptr;
  };

  // Resolved edges-per-chunk geometry (runtime so bounded runs and tests
  // can use smaller chunks; shift changes arena positions but never node
  // ids, intern indices or successor lists).
  std::uint32_t chunkShift_ = kDefaultEdgeChunkShift;
  std::uint32_t chunkCapacity_ = 1u << kDefaultEdgeChunkShift;

  // Cold tier (null without a budget). Declared before edgeChunks_ only
  // for grouping; chunk mappings live until the pager destructs, after
  // edgeChunks_ (reverse member order), so no pointer ever dangles.
  std::unique_ptr<Pager> pager_;

  // Edge arena: fixed-capacity chunks that never relocate; successor lists
  // are contiguous runs inside one chunk. edgeUsed_ is the tail of the
  // last chunk; edgeSlackSlots_ counts the slots wasted at chunk tails
  // when a run would not fit.
  std::vector<EdgeChunk> edgeChunks_;
  std::uint32_t edgeUsed_ = 0;  // set to chunkCapacity_ by the constructor
                                // to force the first chunk
  std::uint64_t edgeSlackSlots_ = 0;

  // Interning index: linear-probe open addressing of (hash, chain head);
  // states with equal hashes chain intrusively through nextSameHash_.
  std::vector<IndexSlot> index_;
  std::size_t indexUsed_ = 0;
  std::vector<NodeId> nextSameHash_;

  // Slot hash-consing, transition memo and action pool: private by
  // default, shared across jobs when the service injects a warm memo (see
  // analysis/analysis_memo.h). Single-writer either way.
  std::shared_ptr<AnalysisMemo> memo_;
  // The shared cache's tallies at this graph's construction, so
  // transitionStats() stays per-graph on a warm memo.
  TransitionCache::Stats transitionsBase_;
  // reducedSuccessors() pass-1 scratch, reused across expansions.
  std::vector<const ioa::Action*> porActions_;
  PorPolicy::Scratch porScratch_;
  Stats stats_;
#ifndef NDEBUG
  std::thread::id writer_;  // single-writer expectation, asserted in debug
#endif
};

inline EdgeView EdgeList::iterator::operator*() const {
  return EdgeView{g_->taskAt(cur_->task), g_->actionAt(cur_->action),
                  cur_->to};
}

inline EdgeView EdgeList::operator[](std::size_t k) const {
  const CompactEdge& ce = data_[k];
  return EdgeView{g_->taskAt(ce.task), g_->actionAt(ce.action), ce.to};
}

}  // namespace boosting::analysis
