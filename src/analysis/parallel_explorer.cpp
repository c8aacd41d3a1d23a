#include "analysis/parallel_explorer.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "analysis/dense.h"
#include "analysis/pager.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace boosting::analysis {

namespace {

// Handle of a node in the private table: shard index in the high bits,
// index within the shard's deque in the low bits. The handle encoding is
// fixed at the maximum shard count; the RESOLVED shard count per run is a
// power of two <= kMaxShards derived from the worker count.
using PHandle = std::uint64_t;
constexpr unsigned kShardBitsMax = 8;
constexpr std::size_t kMaxShards = shard_router::kMaxShards;
static_assert(kMaxShards == std::size_t{1} << kShardBitsMax);
constexpr unsigned kIndexBits = 64 - kShardBitsMax;
constexpr PHandle kNoHandle = ~PHandle{0};

PHandle makeHandle(std::size_t shard, std::size_t index) {
  return (static_cast<PHandle>(shard) << kIndexBits) |
         static_cast<PHandle>(index);
}
std::size_t shardOf(PHandle h) { return static_cast<std::size_t>(h >> kIndexBits); }
std::size_t indexOf(PHandle h) {
  return static_cast<std::size_t>(h & ((PHandle{1} << kIndexBits) - 1));
}

// Worker-local action ref: owning worker in the high byte, index into that
// worker's hash-consed pool below. Phase 2 resolves refs into the graph's
// global pool in canonical first-use order (see pinGlobalAction), so the
// global intern indices stay bit-identical to serial exploration.
constexpr unsigned kActionWorkerShift = 24;
constexpr std::uint32_t kActionLocalMask = (1u << kActionWorkerShift) - 1;
static_assert(kMaxWorkers <= 256, "action ref / PNode::edgeWorker width");

// Compact successor record living in the expanding worker's edge arena.
// `to` is patched in at batch-flush time (kNoHandle until then); nobody
// reads it earlier -- the arena is worker-private during phase 1 and the
// install pass only runs after the join.
struct CompactPEdge {
  PHandle to = kNoHandle;
  std::uint32_t action = 0;  // worker-local action ref
  std::uint16_t task = 0;    // index into System::allTasks()
};

struct PNode {
  ioa::SystemState state;
  std::size_t hash = 0;
  std::uint32_t nextSameHash = UINT32_MAX;  // intrusive shard hash chain
  // Successor run in the expanding worker's arena. Written by the sole
  // expanding worker without the shard lock (distinct members are distinct
  // memory locations), read only after the workers have been joined.
  std::uint32_t edgeBegin = 0;
  std::uint16_t edgeCount = 0;
  std::uint8_t edgeWorker = 0;
  bool expanded = false;  // false = truncated leaf (maxStates cap)
};

// How many successors a worker buffers per shard before handing the batch
// to the owning shard under one lock acquisition.
constexpr std::size_t kBatchCapacity = 64;

// Resolved frontier-spill geometry (see ExplorationPolicy). Batch buffers
// are bounded (kBatchCapacity entries per worker-shard pair), so the
// frontier QUEUES are what can grow without bound -- they are what spills.
struct FrontierSpillConfig {
  std::size_t threshold = 0;   // 0 = spill disabled
  std::size_t segEntries = 0;  // entries per on-disk segment
};

FrontierSpillConfig resolveFrontierSpill(const ExplorationPolicy& policy) {
  FrontierSpillConfig fc;
  fc.threshold = policy.frontierSpillThreshold;
  if (fc.threshold == 0 && policy.memoryBudgetBytes != 0) {
    fc.threshold = 65536;  // 512 KiB of handles before segments move out
  }
  fc.segEntries = std::max<std::size_t>(16, fc.threshold / 4);
  return fc;
}

// Flush the tallies of one exploration into the registry under the serial
// BFS naming (explore.*). The parallel engine uses explorer.* names so the
// two paths stay distinguishable in a merged metrics file.
void flushSerialExplore(obs::Registry* reg, const ExploreStats& stats,
                        bool spillEnabled) {
  if (!reg) return;
  reg->add("explore.states_discovered", stats.statesDiscovered);
  reg->add("explore.edges_computed", stats.edgesComputed);
  reg->maxOf("explore.frontier_peak", stats.frontierPeak);
  if (stats.truncated) reg->add("explore.truncations", 1);
  if (spillEnabled) {
    reg->add("explore.frontier_segments_spilled",
             stats.frontierSpill.segmentsSpilled);
    reg->add("explore.frontier_reloads",
             stats.frontierSpill.segmentsReloaded);
  }
}

// Serial fallback: the legacy BFS over StateGraph::successors(), with the
// maxStates safety valve.
ExploreStats serialExplore(StateGraph& g, NodeId root,
                           const ExplorationPolicy& policy) {
  ExploreStats stats;
  stats.threadsUsed = 1;
  // The BFS frontier runs through the spill-capable FIFO; with spill
  // disabled (threshold 0) it degenerates to a plain in-memory deque, so
  // both configurations drain in identical order by construction.
  const FrontierSpillConfig spill = resolveFrontierSpill(policy);
  SpilledFrontier frontier(spill.threshold, spill.segEntries,
                           policy.spillDir);
  frontier.push(root);
  DenseNodeSet seen(g.size());
  seen.insert(root);
  std::uint64_t expansions = 0;
  try {
    std::uint64_t item = 0;
    while (!frontier.empty()) {
      if (policy.maxStates != 0 && seen.size() > policy.maxStates) {
        stats.truncated = true;
        break;
      }
      stats.frontierPeak = std::max<std::uint64_t>(stats.frontierPeak,
                                                   frontier.size());
      frontier.pop(&item);
      const NodeId x = static_cast<NodeId>(item);
      if (policy.expansionHook) policy.expansionHook(++expansions);
      // Reduced tier when a POR policy is active, full tier otherwise --
      // the same switch the valence BFS takes.
      for (const EdgeView e : g.exploreSuccessors(x)) {
        ++stats.edgesComputed;
        if (seen.insert(e.to)) frontier.push(e.to);
      }
    }
  } catch (...) {
    // A throwing expansion hook (or a pathological component transition)
    // interrupts the BFS between whole-node expansions: the graph holds
    // only fully installed nodes/edges and must self-check clean.
    assert(g.checkConsistent() &&
           "serialExplore: StateGraph inconsistent after aborted BFS");
    if (policy.metrics) policy.metrics->add("explore.aborts", 1);
    throw;
  }
  stats.statesDiscovered = seen.size();
  stats.frontierSpill.segmentsSpilled = frontier.stats().segmentsSpilled;
  stats.frontierSpill.segmentsReloaded = frontier.stats().segmentsReloaded;
  flushSerialExplore(policy.metrics, stats, spill.threshold != 0);
  return stats;
}

}  // namespace

struct ParallelExplorer::Impl {
  struct IndexSlot {
    std::size_t hash = 0;
    std::uint32_t head = UINT32_MAX;  // UINT32_MAX == empty slot
  };

  struct Shard {
    std::mutex m;
    std::deque<PNode> nodes;  // deque: references stable across push_back
    // Open-addressing {hash, head} table over intrusive chains through
    // PNode::nextSameHash -- the same layout as StateGraph's interner.
    std::vector<IndexSlot> index;
    std::size_t indexUsed = 0;
  };

  struct WorkQueue {
    std::mutex m;
    std::deque<PHandle> q;
    // Out-of-core overflow for this queue's cold (steal-end) entries, only
    // allocated when the policy enables frontier spill. Entries moved here
    // keep their in-flight tokens: the owner reloads them in popWork before
    // it can ever observe inflight == 0, so termination detection is
    // unaffected. Order within the overflow is irrelevant in phase 1 --
    // the reachable set is confluent and phase 2 renumbers canonically.
    // Guarded by `m`, like the deque.
    std::unique_ptr<SpilledFrontier> overflow;
  };

  // A successor routed to a shard but not yet interned. The state is
  // already its orbit representative with canonical slots; `hash` is the
  // canonical hash the owning shard was selected from.
  struct BatchEntry {
    ioa::SystemState state;
    std::size_t hash = 0;
    PHandle parent = kNoHandle;
    std::uint32_t edgePos = 0;  // arena position of the edge to patch
    // POR freshness out-param (points into the expanding worker's
    // per-node scratch; flushes happen on the same thread): 0 = known
    // state, 1 = fresh, 2 = fresh but over the maxStates cap.
    std::uint8_t* freshOut = nullptr;
    bool spawn = true;  // enqueue frontier work on fresh insert
  };

  struct ActionSlot {
    std::size_t hash = 0;
    std::uint32_t idx = UINT32_MAX;
  };

  // Per-worker chunked edge arena: runs never span a chunk, so a packed
  // (chunk << kChunkShift | offset) position addresses edges stably while
  // chunks keep getting appended. Owner-only during phase 1; the install
  // pass reads it after the join.
  struct EdgeArena {
    static constexpr unsigned kChunkShift = 15;
    static constexpr std::size_t kChunkCapacity = std::size_t{1}
                                                  << kChunkShift;
    std::vector<std::unique_ptr<CompactPEdge[]>> chunks;
    std::size_t used = kChunkCapacity;

    std::uint32_t reserveRun(std::size_t need) {
      assert(need <= kChunkCapacity);
      if (kChunkCapacity - used < need) {
        chunks.push_back(std::make_unique<CompactPEdge[]>(kChunkCapacity));
        used = 0;
      }
      const std::uint32_t base = static_cast<std::uint32_t>(
          ((chunks.size() - 1) << kChunkShift) | used);
      used += need;
      return base;
    }

    CompactPEdge& at(std::uint32_t pos) const {
      return chunks[pos >> kChunkShift][pos & (kChunkCapacity - 1)];
    }
  };

  // Everything a worker owns privately during phase 1. Read by the install
  // pass only after the join.
  struct WorkerState {
    EdgeArena arena;
    // Worker-local hash-consed action pool (deque: stable references).
    std::deque<ioa::Action> actionPool;
    std::vector<ActionSlot> actionTable;
    std::size_t actionCount = 0;
    // One batch buffer per shard plus a dirty list so idle flushes skip
    // clean shards without scanning all of them.
    std::vector<std::vector<BatchEntry>> batch;
    std::vector<std::uint16_t> dirtyShards;
    std::vector<std::uint8_t> dirtyFlag;
    std::vector<std::uint8_t> everTouched;
    // Per-node scratch, reused across expansions.
    std::vector<const ioa::Action*> porActs;
    std::vector<std::uint8_t> porFresh;
    struct Deferred {
      std::size_t ti;
      std::uint32_t edgePos;
    };
    std::vector<Deferred> deferred;
    // Phase-2 memo: worker-local action index -> global pool index
    // (UINT32_MAX = not yet pinned). Only touched by the install thread.
    std::vector<std::uint32_t> globalActionId;
  };

  StateGraph& g;
  const ioa::System& sys;
  ExplorationPolicy policy;
  FrontierSpillConfig spill;  // resolved once; threshold 0 = no spill
  unsigned workers = 1;
  unsigned shardCount = 1;
  unsigned shardBits = 0;  // log2(shardCount); in-shard probes use the
                           // hash bits ABOVE the shard-select bits

  std::vector<Shard> shards;
  // Striped slot hash-consing shared by all workers: probe states are
  // thread-private while being canonicalized; only the table is shared.
  ioa::SlotCanonTable slotCanon{/*concurrent=*/true};
  std::vector<WorkQueue> queues;
  std::vector<WorkerState> wstates;

  std::atomic<std::int64_t> inflight{0};
  std::atomic<std::size_t> discovered{0};
  std::atomic<std::size_t> edges{0};
  std::atomic<bool> abort{false};
  std::atomic<bool> truncated{false};
  std::mutex errMutex;
  std::exception_ptr firstError;

  // One slot per worker, written only by that worker during phase 1 and
  // read after the join (the jthread join is the publication fence).
  std::vector<ExploreStats::WorkerStats> workerStats;
  // Fresh root interns by the driver thread (counted into shard.routed so
  // routed == statesDiscovered holds exactly).
  std::uint64_t rootRouted = 0;
  // Running expansion count shared by all workers, fed to the (optional)
  // expansion hook. Only maintained when a hook is installed.
  std::atomic<std::uint64_t> expansionsSeen{0};

  std::vector<PHandle> rootHandles;
  bool expanded = false;
  // Set when expand() rethrew a worker exception: the private table is not
  // canonical, so install() is poisoned.
  bool abortedForError = false;

  // Phase-2 memo: which table nodes have already been interned into `g`.
  std::unordered_map<PHandle, NodeId> installedIds;
  // Reverse map for the POR install pass (graph node -> table handle);
  // maintained at every internGraph call site of installPor.
  std::unordered_map<NodeId, PHandle> handleOf;

  ExploreStats statsOut;

  Impl(StateGraph& graph, const ExplorationPolicy& p)
      : g(graph), sys(graph.system()), policy(p),
        spill(resolveFrontierSpill(p)) {
    workers = resolveWorkers(policy.threads);
    shardCount = shard_router::resolveShardCount(workers);
    shardBits = static_cast<unsigned>(std::countr_zero(shardCount));
    shards = std::vector<Shard>(shardCount);
    queues = std::vector<WorkQueue>(workers);
    if (spill.threshold != 0) {
      // The overflow's own in-memory window is one segment (threshold =
      // segEntries): anything past that goes straight to disk, so the
      // combined in-memory footprint of a queue stays near the policy
      // threshold rather than doubling it.
      for (WorkQueue& wq : queues) {
        wq.overflow = std::make_unique<SpilledFrontier>(
            spill.segEntries, spill.segEntries, policy.spillDir);
      }
    }
    workerStats.resize(workers);
    wstates = std::vector<WorkerState>(workers);
    for (WorkerState& w : wstates) {
      w.batch.resize(shardCount);
      w.dirtyFlag.assign(shardCount, 0);
      w.everTouched.assign(shardCount, 0);
    }
  }

  std::size_t shardIndexOf(std::size_t hash) const {
    return shard_router::shardIndexOf(hash, shardCount);
  }

  PNode* nodePtr(PHandle h) {
    Shard& sh = shards[shardOf(h)];
    // The deque's internals may be concurrently grown by interning
    // workers, so even index access needs the shard lock; the returned
    // reference itself stays stable.
    std::lock_guard<std::mutex> lock(sh.m);
    return &sh.nodes[indexOf(h)];
  }

  // Linear probe of a shard's open-addressing index. Shard selection eats
  // the low hash bits, so slot positions come from the bits above them.
  // No deletions, so probes never cross tombstones. Caller holds sh.m.
  IndexSlot* findIndexSlot(Shard& sh, std::size_t hash) {
    const std::size_t mask = sh.index.size() - 1;
    std::size_t i = shard_router::probeStart(hash, shardBits, mask);
    for (;;) {
      IndexSlot& slot = sh.index[i];
      if (slot.head == UINT32_MAX || slot.hash == hash) return &slot;
      i = (i + 1) & mask;
      __builtin_prefetch(&sh.index[(i + 1) & mask]);
    }
  }

  void growShardIndex(Shard& sh, std::size_t newCap) {
    std::vector<IndexSlot> old = std::move(sh.index);
    sh.index.assign(newCap, IndexSlot{});
    const std::size_t mask = newCap - 1;
    for (const IndexSlot& slot : old) {
      if (slot.head == UINT32_MAX) continue;
      std::size_t i = shard_router::probeStart(slot.hash, shardBits, mask);
      while (sh.index[i].head != UINT32_MAX) i = (i + 1) & mask;
      sh.index[i] = slot;
    }
  }

  // Intern a canonical, slot-canonicalized state into its owning shard.
  // Caller holds sh.m of exactly shards[shardIdx].
  std::pair<PHandle, bool> internShardLocked(Shard& sh, std::size_t shardIdx,
                                             ioa::SystemState&& s,
                                             std::size_t hash) {
    if (sh.index.empty()) growShardIndex(sh, 256);
    IndexSlot* slot = findIndexSlot(sh, hash);
    const bool occupied = slot->head != UINT32_MAX;
    if (occupied) {
      for (std::uint32_t idx = slot->head; idx != UINT32_MAX;
           idx = sh.nodes[idx].nextSameHash) {
        if (sh.nodes[idx].state.equals(s)) {
          return {makeHandle(shardIdx, idx), false};
        }
      }
    }
    const std::uint32_t idx = static_cast<std::uint32_t>(sh.nodes.size());
    PNode node;
    node.state = std::move(s);
    node.hash = hash;
    node.nextSameHash = occupied ? slot->head : UINT32_MAX;
    sh.nodes.push_back(std::move(node));
    if (occupied) {
      slot->head = idx;
    } else {
      *slot = IndexSlot{hash, idx};
      if ((++sh.indexUsed) * 10 >= sh.index.size() * 7) {
        growShardIndex(sh, sh.index.size() * 2);
      }
    }
    return {makeHandle(shardIdx, idx), true};
  }

  // Direct (unbatched) intern, used for roots by the driver thread before
  // the workers start. Returns (handle, inserted).
  std::pair<PHandle, bool> internDirect(ioa::SystemState&& s,
                                        std::size_t hash) {
    // Orbit reduction happens before routing, so shards only ever see
    // canonical representatives and install() can hand them to the graph
    // verbatim (internPrecanonicalized) -- interning order, and thus the
    // serial-vs-parallel bit-for-bit guarantee, is unaffected because the
    // serial engine canonicalizes at the same point (intern time).
    // canonicalize() never mutates `s`: on a dedup hit the caller's
    // reusable successor buffer must survive untouched.
    const SymmetryPolicy* sym = g.symmetryPolicy();
    if (sym && !sym->trivial()) {
      if (auto c = sym->canonicalize(s)) {
        ioa::SystemState canon = std::move(c->state);
        const std::size_t h = canon.hash();
        return internDirectCanonical(std::move(canon), h);
      }
    }
    return internDirectCanonical(std::move(s), hash);
  }

  std::pair<PHandle, bool> internDirectCanonical(ioa::SystemState&& s,
                                                 std::size_t hash) {
    // Canonicalize outside the shard lock (stripe locks are disjoint from
    // shard locks, and `s` is still private to this thread).
    slotCanon.canonicalize(s);
    const std::size_t shardIdx = shardIndexOf(hash);
    Shard& sh = shards[shardIdx];
    std::lock_guard<std::mutex> lock(sh.m);
    return internShardLocked(sh, shardIdx, std::move(s), hash);
  }

  // Worker-local action hash-consing: no locks, stable references, refs
  // resolvable to the global pool in phase 2.
  std::uint32_t internLocalAction(unsigned self, const ioa::Action& a) {
    WorkerState& w = wstates[self];
    if (w.actionTable.empty()) w.actionTable.assign(256, ActionSlot{});
    const std::size_t h = a.hash();
    std::size_t mask = w.actionTable.size() - 1;
    std::size_t i = h & mask;
    for (;;) {
      ActionSlot& slot = w.actionTable[i];
      if (slot.idx == UINT32_MAX) {
        const std::uint32_t idx =
            static_cast<std::uint32_t>(w.actionPool.size());
        assert(idx <= kActionLocalMask && "worker action pool overflow");
        w.actionPool.push_back(a);
        slot = ActionSlot{h, idx};
        if ((++w.actionCount) * 10 >= w.actionTable.size() * 7) {
          growActionTable(w);
        }
        return (static_cast<std::uint32_t>(self) << kActionWorkerShift) | idx;
      }
      if (slot.hash == h && w.actionPool[slot.idx] == a) {
        return (static_cast<std::uint32_t>(self) << kActionWorkerShift) |
               slot.idx;
      }
      i = (i + 1) & mask;
    }
  }

  void growActionTable(WorkerState& w) {
    std::vector<ActionSlot> old = std::move(w.actionTable);
    w.actionTable.assign(old.size() * 2, ActionSlot{});
    const std::size_t mask = w.actionTable.size() - 1;
    for (const ActionSlot& slot : old) {
      if (slot.idx == UINT32_MAX) continue;
      std::size_t i = slot.hash & mask;
      while (w.actionTable[i].idx != UINT32_MAX) i = (i + 1) & mask;
      w.actionTable[i] = slot;
    }
  }

  const ioa::Action& localAction(std::uint32_t ref) const {
    return wstates[ref >> kActionWorkerShift]
        .actionPool[ref & kActionLocalMask];
  }

  // Bulk-pin scratch for pinActionRun (install thread only). Unpinned refs
  // are remembered as (worker, local) pairs, NOT pointers: the memo vector
  // may resize while a batch is being collected.
  struct PendingPin {
    std::uint8_t worker;
    std::uint32_t local;
  };
  std::vector<PendingPin> bulkPins;
  std::vector<const ioa::Action*> bulkActs;
  std::vector<std::uint32_t> bulkIds;

  // Resolve the worker-local action refs of one successor run (optionally
  // masked by task) into the graph's global pool, interning first uses as
  // ONE bulk pass. The batch walks edges in task order -- exactly where the
  // serial expansion would intern each action -- so the global pool order,
  // and with it every CompactEdge::action index, stays bit-identical:
  // within the batch first-intern order equals edge order, and setParent's
  // later interns are all memo hits. The bulk pass exists for throughput:
  // the memo's probe loop prefetches the next ref's home slot while the
  // current one compares (see AnalysisMemo::internActionBatch).
  void pinActionRun(const EdgeArena& arena, std::uint32_t begin,
                    std::uint16_t count, std::uint64_t taskMask) {
    bulkPins.clear();
    bulkActs.clear();
    for (std::uint32_t k = 0; k < count; ++k) {
      const CompactPEdge& pe = arena.at(begin + k);
      if (((taskMask >> pe.task) & 1) == 0) continue;
      WorkerState& w = wstates[pe.action >> kActionWorkerShift];
      const std::uint32_t local = pe.action & kActionLocalMask;
      if (w.globalActionId.size() <= local) {
        w.globalActionId.resize(local + 1, UINT32_MAX);
      }
      if (w.globalActionId[local] != UINT32_MAX) continue;
      bulkPins.push_back(PendingPin{
          static_cast<std::uint8_t>(pe.action >> kActionWorkerShift), local});
      bulkActs.push_back(&w.actionPool[local]);
    }
    if (bulkPins.empty()) return;
    bulkIds.resize(bulkPins.size());
    g.internActionIds(bulkActs.data(), bulkIds.data(), bulkActs.size());
    for (std::size_t k = 0; k < bulkPins.size(); ++k) {
      wstates[bulkPins[k].worker].globalActionId[bulkPins[k].local] =
          bulkIds[k];
    }
  }

  void pushWork(unsigned self, PHandle h) {
    WorkQueue& wq = queues[self];
    std::lock_guard<std::mutex> lock(wq.m);
    wq.q.push_back(h);
    workerStats[self].frontierPeak =
        std::max<std::uint64_t>(workerStats[self].frontierPeak, wq.q.size());
    // Frontier spill: past the threshold, shed a segment's worth of the
    // COLDEST entries (the front -- the steal end) into the overflow FIFO.
    // Their in-flight tokens ride along; see WorkQueue::overflow.
    if (wq.overflow && wq.q.size() > spill.threshold) {
      const std::size_t shed =
          std::min<std::size_t>(spill.segEntries, wq.q.size() - 1);
      for (std::size_t k = 0; k < shed; ++k) {
        wq.overflow->push(wq.q.front());
        wq.q.pop_front();
      }
    }
  }

  // Route one discovered successor to its owning shard via the worker's
  // batch buffer. Takes the in-flight token for the entry; flushShard
  // releases it unless the entry spawns frontier work.
  void routeSuccessor(unsigned self, ioa::SystemState&& s, std::size_t hash,
                      PHandle parent, std::uint32_t edgePos,
                      std::uint8_t* freshOut, bool spawn) {
    // Symmetry canonicalization must run BEFORE routing: the owning shard
    // is a function of the canonical hash, so shards only ever see orbit
    // representatives.
    const SymmetryPolicy* sym = g.symmetryPolicy();
    if (sym && !sym->trivial()) {
      if (auto c = sym->canonicalize(s)) {
        ioa::SystemState canon = std::move(c->state);
        const std::size_t h = canon.hash();
        routeCanonical(self, std::move(canon), h, parent, edgePos, freshOut,
                       spawn);
        return;
      }
    }
    routeCanonical(self, std::move(s), hash, parent, edgePos, freshOut,
                   spawn);
  }

  void routeCanonical(unsigned self, ioa::SystemState&& s, std::size_t hash,
                      PHandle parent, std::uint32_t edgePos,
                      std::uint8_t* freshOut, bool spawn) {
    slotCanon.canonicalize(s);
    const std::size_t shardIdx = shardIndexOf(hash);
    WorkerState& w = wstates[self];
    std::vector<BatchEntry>& batch = w.batch[shardIdx];
    if (!w.dirtyFlag[shardIdx]) {
      w.dirtyFlag[shardIdx] = 1;
      w.dirtyShards.push_back(static_cast<std::uint16_t>(shardIdx));
      if (!w.everTouched[shardIdx]) {
        w.everTouched[shardIdx] = 1;
        ++workerStats[self].activePairs;
      }
    }
    // The batched successor counts as in-flight until its flush decides it
    // is a duplicate / capped -- otherwise a worker could observe
    // inflight == 0 and terminate while fresh states sit in a buffer.
    inflight.fetch_add(1, std::memory_order_relaxed);
    BatchEntry e;
    e.state = std::move(s);
    e.hash = hash;
    e.parent = parent;
    e.edgePos = edgePos;
    e.freshOut = freshOut;
    e.spawn = spawn;
    batch.push_back(std::move(e));
    if (batch.size() >= kBatchCapacity) flushShard(self, shardIdx);
  }

  // Hand the worker's pending batch for one shard to the owning shard:
  // intern every entry under a single lock acquisition, then patch parent
  // edges, report freshness, and spawn frontier work outside the lock.
  void flushShard(unsigned self, std::size_t shardIdx) {
    WorkerState& w = wstates[self];
    std::vector<BatchEntry>& batch = w.batch[shardIdx];
    w.dirtyFlag[shardIdx] = 0;
    if (batch.empty()) return;
    ExploreStats::WorkerStats& ws = workerStats[self];
    ++ws.batchFlushes;
    ws.maxBatchDepth =
        std::max<std::uint64_t>(ws.maxBatchDepth, batch.size());
    std::vector<std::pair<PHandle, bool>> results;
    results.reserve(batch.size());
    {
      Shard& sh = shards[shardIdx];
      std::lock_guard<std::mutex> lock(sh.m);
      for (BatchEntry& e : batch) {
        results.push_back(
            internShardLocked(sh, shardIdx, std::move(e.state), e.hash));
      }
    }
    for (std::size_t k = 0; k < batch.size(); ++k) {
      BatchEntry& e = batch[k];
      const auto [h, inserted] = results[k];
      if (e.parent != kNoHandle) {
        w.arena.at(e.edgePos).to = h;
        if (shardOf(e.parent) != shardIdx) ++ws.crossShardEdges;
      }
      bool overCap = false;
      bool keep = false;
      if (inserted) {
        ++ws.routed;
        const std::size_t count =
            discovered.fetch_add(1, std::memory_order_relaxed) + 1;
        if (policy.maxStates != 0 && count > policy.maxStates) {
          // Leave the child unexpanded: the exploration is truncated.
          truncated.store(true, std::memory_order_relaxed);
          overCap = true;
        } else if (e.spawn) {
          pushWork(self, h);
          keep = true;  // the in-flight token rides on the queued node
        }
      }
      if (e.freshOut) *e.freshOut = inserted ? (overCap ? 2 : 1) : 0;
      if (!keep) inflight.fetch_sub(1, std::memory_order_release);
    }
    batch.clear();
  }

  // Flush every dirty batch this worker holds. Called on POR node
  // boundaries and before a worker declares itself idle: a pending batch
  // both hides in-flight work and may refill the own queue.
  void flushWorker(unsigned self) {
    WorkerState& w = wstates[self];
    while (!w.dirtyShards.empty()) {
      const std::uint16_t shardIdx = w.dirtyShards.back();
      w.dirtyShards.pop_back();
      flushShard(self, shardIdx);
    }
  }

  // Abort path: drop every pending batch entry and release its in-flight
  // token so the counter drains and all workers exit. The discarded states
  // never reach a shard, so the table keeps only fully interned nodes --
  // and the StateGraph, untouched by phase 1, stays consistent.
  void drainBatches(unsigned self) {
    WorkerState& w = wstates[self];
    for (std::vector<BatchEntry>& batch : w.batch) {
      if (batch.empty()) continue;
      inflight.fetch_sub(static_cast<std::int64_t>(batch.size()),
                         std::memory_order_release);
      batch.clear();
    }
    w.dirtyShards.clear();
    std::fill(w.dirtyFlag.begin(), w.dirtyFlag.end(), 0);
    // Drain-and-poison extends to spilled segments: entries parked in the
    // overflow (in memory or on disk) hold in-flight tokens too, so the
    // abort path must release them or the counter never drains.
    {
      WorkQueue& wq = queues[self];
      std::lock_guard<std::mutex> lock(wq.m);
      if (wq.overflow && !wq.overflow->empty()) {
        inflight.fetch_sub(static_cast<std::int64_t>(wq.overflow->size()),
                           std::memory_order_release);
        wq.overflow->clear();
      }
    }
  }

  bool popWork(unsigned self, PHandle* out) {
    ExploreStats::WorkerStats& ws = workerStats[self];
    for (;;) {
      if (abort.load(std::memory_order_relaxed)) return false;
      {
        WorkQueue& own = queues[self];
        std::lock_guard<std::mutex> lock(own.m);
        if (!own.q.empty()) {
          *out = own.q.back();
          own.q.pop_back();
          return true;
        }
      }
      // Own queue empty: route anything still batched before looking for
      // other work -- the flush may refill the own queue.
      flushWorker(self);
      {
        WorkQueue& own = queues[self];
        std::lock_guard<std::mutex> lock(own.m);
        if (!own.q.empty()) {
          *out = own.q.back();
          own.q.pop_back();
          return true;
        }
        // Reload spilled frontier entries before stealing or going idle:
        // the overflow's tokens keep inflight above zero, so the owner is
        // guaranteed to pass through here while entries remain.
        if (own.overflow && !own.overflow->empty()) {
          std::uint64_t item = 0;
          for (std::size_t k = 0;
               k < spill.segEntries && own.overflow->pop(&item); ++k) {
            own.q.push_back(static_cast<PHandle>(item));
          }
          *out = own.q.back();
          own.q.pop_back();
          return true;
        }
      }
      for (unsigned k = 1; k < workers; ++k) {
        WorkQueue& victim = queues[(self + k) % workers];
        std::lock_guard<std::mutex> lock(victim.m);
        if (!victim.q.empty()) {
          *out = victim.q.front();  // steal from the cold end
          victim.q.pop_front();
          ++ws.steals;
          return true;
        }
      }
      if (inflight.load(std::memory_order_acquire) == 0) return false;
      ++ws.idleSpins;
      std::this_thread::yield();
    }
  }

  void expandNode(unsigned self, PHandle h, TransitionCache& transitions) {
    if (policy.expansionHook) {
      // Fired before the node mutates the table, so a throwing hook leaves
      // the engine exactly as an expansion failure would.
      policy.expansionHook(
          expansionsSeen.fetch_add(1, std::memory_order_relaxed) + 1);
    }
    PNode* n = nodePtr(h);
    WorkerState& w = wstates[self];
    const std::vector<ioa::TaskId>& tasks = sys.allTasks();
    // With an active POR policy the full successor record is still built
    // (the install pass replays the ample decision from it), but only
    // AMPLE children seed further frontier work -- that is where the
    // parallel phase earns the reduction. A node the install-order proviso
    // later falls back on gets its missing children expanded by the
    // install pass's slow path, so no reachable reduced node is lost.
    const PorPolicy* por = g.porActive() ? g.porPolicy() : nullptr;
    if (por) {
      w.porActs.assign(tasks.size(), nullptr);
      w.porFresh.assign(tasks.size(), 0);
      w.deferred.clear();
    }
    const std::uint32_t base = w.arena.reserveRun(tasks.size());
    std::uint16_t count = 0;
    std::uint64_t edgeTally = 0;
    ioa::SystemState next;  // reusable successor buffer (see step())
    for (std::size_t ti = 0; ti < tasks.size(); ++ti) {
      const ioa::Action* action = transitions.step(n->state, ti, &next);
      if (!action) continue;
      // Pointers into the worker's transition memo: node-stable across the
      // later insertions this loop performs.
      if (por) w.porActs[ti] = action;
      ++edgeTally;
      const std::uint32_t pos = base + count;
      w.arena.at(pos) = CompactPEdge{
          kNoHandle, internLocalAction(self, *action),
          static_cast<std::uint16_t>(ti)};
      const std::size_t hash = next.hash();
      routeSuccessor(self, std::move(next), hash, h, pos,
                     por ? &w.porFresh[ti] : nullptr, /*spawn=*/por == nullptr);
      if (por) w.deferred.push_back(WorkerState::Deferred{ti, pos});
      ++count;
    }
    if (por) {
      // Node boundary: freshness flags and child handles are needed for
      // the ample decision below, so all pending batches go out now.
      flushWorker(self);
      std::uint64_t enabledMask = 0;
      const std::uint64_t ample = por->ampleMask(w.porActs, &enabledMask);
      for (const WorkerState::Deferred& d : w.deferred) {
        if (((ample >> d.ti) & 1) == 0) continue;
        if (w.porFresh[d.ti] != 1) continue;  // known, or over the cap
        inflight.fetch_add(1, std::memory_order_relaxed);
        pushWork(self, w.arena.at(d.edgePos).to);
      }
    }
    edges.fetch_add(edgeTally, std::memory_order_relaxed);
    n->edgeBegin = base;
    n->edgeCount = count;
    n->edgeWorker = static_cast<std::uint8_t>(self);
    n->expanded = true;
    ++workerStats[self].expanded;
  }

  void workerLoop(unsigned self) {
    // Worker-local transition memo over the shared (striped) canon table:
    // no locking on lookups; only first-time computations touch stripes.
    TransitionCache transitions(sys, slotCanon);
    PHandle h = 0;
    try {
      while (popWork(self, &h)) {
        try {
          expandNode(self, h, transitions);
        } catch (...) {
          {
            std::lock_guard<std::mutex> lock(errMutex);
            if (!firstError) firstError = std::current_exception();
          }
          abort.store(true, std::memory_order_relaxed);
        }
        inflight.fetch_sub(1, std::memory_order_release);
      }
    } catch (...) {
      // popWork itself threw: a frontier spill or reload hit an I/O
      // failure. Record it and poison the run like any expansion error --
      // the drain below releases whatever tokens this worker still holds.
      {
        std::lock_guard<std::mutex> lock(errMutex);
        if (!firstError) firstError = std::current_exception();
      }
      abort.store(true, std::memory_order_relaxed);
    }
    // Exited because of an abort or because the exploration drained. On
    // abort, pending batches must be drained-and-discarded so the
    // in-flight counter releases the other workers; on a clean exit the
    // idle path above already flushed everything.
    drainBatches(self);
    workerStats[self].cache = transitions.stats();
  }

  // Intern the roots and seed the work queues.
  void internRoots(std::vector<ioa::SystemState> roots) {
    unsigned next = 0;
    for (ioa::SystemState& s : roots) {
      const std::size_t hash = s.hash();
      auto [h, inserted] = internDirect(std::move(s), hash);
      rootHandles.push_back(h);
      if (inserted) {
        ++rootRouted;
        discovered.fetch_add(1, std::memory_order_relaxed);
        inflight.fetch_add(1, std::memory_order_relaxed);
        pushWork(next % workers, h);
        ++next;
      }
    }
  }

  // Worker error epilogue: poison installs, self-check the graph, tally
  // the abort, rethrow the first worker exception. Caller has joined.
  [[noreturn]] void handleWorkerError() {
    abortedForError = true;
    // Phase 1 never touches the StateGraph, so the abort must leave it
    // exactly as consistent as it was on entry.
    assert(g.checkConsistent() &&
           "ParallelExplorer: StateGraph inconsistent after worker abort");
    if (policy.metrics) {
      policy.metrics->add("explorer.aborts", 1);
      if (auto* tw = policy.metrics->trace()) {
        tw->event("explorer.abort",
                  {{"states_discovered",
                    static_cast<std::uint64_t>(discovered.load())},
                   {"workers", static_cast<std::uint64_t>(workers)}});
      }
    }
    std::rethrow_exception(firstError);
  }

  // Post-join stats fold.
  void finalizeStats() {
    // Clean termination: every in-flight token (queued nodes AND batched
    // successors) must have been released, or popWork could not have
    // returned false on all workers.
    assert(inflight.load() == 0 &&
           "ParallelExplorer: in-flight tokens leaked past the join");
    statsOut.statesDiscovered = discovered.load();
    statsOut.edgesComputed = edges.load();
    statsOut.threadsUsed = workers;
    statsOut.truncated = truncated.load();
    statsOut.perWorker = workerStats;
    statsOut.shard.count = shardCount;
    statsOut.shard.routed = rootRouted;
    for (const ExploreStats::WorkerStats& ws : workerStats) {
      statsOut.shard.routed += ws.routed;
      statsOut.shard.batchFlushes += ws.batchFlushes;
      statsOut.shard.maxQueueDepth =
          std::max(statsOut.shard.maxQueueDepth, ws.maxBatchDepth);
      statsOut.shard.crossShardEdges += ws.crossShardEdges;
      statsOut.shard.activePairs += ws.activePairs;
    }
    assert(statsOut.shard.routed == discovered.load() &&
           "ParallelExplorer: routed interns out of sync with discoveries");
    for (WorkQueue& wq : queues) {
      if (!wq.overflow) continue;
      statsOut.frontierSpill.segmentsSpilled +=
          wq.overflow->stats().segmentsSpilled;
      statsOut.frontierSpill.segmentsReloaded +=
          wq.overflow->stats().segmentsReloaded;
    }
    flushMetrics();
  }

  void expand(std::vector<ioa::SystemState> roots) {
    if (expanded) {
      throw std::logic_error("ParallelExplorer::expand called twice");
    }
    expanded = true;
    internRoots(std::move(roots));
    {
      std::vector<std::jthread> pool;
      pool.reserve(workers);
      for (unsigned w = 0; w < workers; ++w) {
        pool.emplace_back([this, w] { workerLoop(w); });
      }
    }  // jthread joins here; everything the workers wrote is now visible
    if (firstError) handleWorkerError();
    finalizeStats();
  }

  // Runs before any install, so statsOut.frontierSpill holds only the
  // work-queue share; the install FIFOs flush theirs in noteInstallSpill.
  void flushMetrics() {
    obs::Registry* reg = policy.metrics;
    if (!reg) return;
    reg->add("explorer.expansions", 1);
    reg->add("explorer.states_discovered", statsOut.statesDiscovered);
    reg->add("explorer.edges_computed", statsOut.edgesComputed);
    reg->maxOf("explorer.threads", statsOut.threadsUsed);
    if (statsOut.truncated) reg->add("explorer.truncations", 1);
    reg->maxOf("explorer.shard.count", statsOut.shard.count);
    reg->add("explorer.shard.routed", statsOut.shard.routed);
    reg->add("explorer.shard.batch_flushes", statsOut.shard.batchFlushes);
    reg->maxOf("explorer.shard.max_queue_depth",
               statsOut.shard.maxQueueDepth);
    reg->add("explorer.shard.cross_shard_edges",
             statsOut.shard.crossShardEdges);
    reg->add("explorer.shard.active_pairs", statsOut.shard.activePairs);
    if (spill.threshold != 0) {
      reg->add("explorer.frontier.segments_spilled",
               statsOut.frontierSpill.segmentsSpilled);
      reg->add("explorer.frontier.reloads",
               statsOut.frontierSpill.segmentsReloaded);
    }
    TransitionCache::Stats cache;
    for (unsigned w = 0; w < workers; ++w) {
      const ExploreStats::WorkerStats& ws = workerStats[w];
      const std::string prefix = "explorer.worker" + std::to_string(w);
      reg->add(prefix + ".expanded", ws.expanded);
      reg->add(prefix + ".steals", ws.steals);
      reg->add(prefix + ".idle_spins", ws.idleSpins);
      reg->maxOf(prefix + ".frontier_peak", ws.frontierPeak);
      cache.accumulate(ws.cache);
    }
    reg->add("explorer.cache.enabled_lookups", cache.enabledLookups);
    reg->add("explorer.cache.enabled_hits", cache.enabledHits);
    reg->add("explorer.cache.enabled_misses", cache.enabledMisses);
    reg->add("explorer.cache.apply_lookups", cache.applyLookups);
    reg->add("explorer.cache.apply_hits", cache.applyHits);
    reg->add("explorer.cache.apply_misses", cache.applyMisses);
    if (auto* tw = reg->trace()) {
      tw->event(
          "explorer.expand_done",
          {{"states", static_cast<std::uint64_t>(statsOut.statesDiscovered)},
           {"edges", static_cast<std::uint64_t>(statsOut.edgesComputed)},
           {"workers", static_cast<std::uint64_t>(statsOut.threadsUsed)},
           {"shards", static_cast<std::uint64_t>(statsOut.shard.count)},
           {"truncated", statsOut.truncated}});
    }
  }

  // Intern a table node into the graph (memoized). Sets *inserted when the
  // graph created a fresh node.
  NodeId internGraph(PHandle h, bool* inserted) {
    if (auto it = installedIds.find(h); it != installedIds.end()) {
      if (inserted) *inserted = false;
      return it->second;
    }
    PNode* pn = nodePtr(h);
    // The move consumes pn->state only when the graph actually inserts;
    // either way the node is memoized so the state is probed at most once.
    // Table states are already orbit representatives (routeSuccessor), so
    // the graph must not re-canonicalize -- it would double-count the
    // symmetry statistics that the serial engine tallies once per probe.
    const auto r = g.internPrecanonicalized(std::move(pn->state), pn->hash);
    installedIds.emplace(h, r.id);
    if (inserted) *inserted = r.inserted;
    return r.id;
  }

  // Probe the private table for a node equal to `s` WITHOUT inserting.
  // Used by the POR install pass to recover the handle of a graph node it
  // reached through the slow path. May miss (returns nullopt) for states
  // whose table copy was moved into the graph already -- those are exactly
  // the ones handleOf knows.
  std::optional<PHandle> findTable(const ioa::SystemState& s,
                                   std::size_t hash) {
    const std::size_t shardIdx = shardIndexOf(hash);
    Shard& sh = shards[shardIdx];
    std::lock_guard<std::mutex> lock(sh.m);
    if (sh.index.empty()) return std::nullopt;
    IndexSlot* slot = findIndexSlot(sh, hash);
    if (slot->head == UINT32_MAX) return std::nullopt;
    for (std::uint32_t idx = slot->head; idx != UINT32_MAX;
         idx = sh.nodes[idx].nextSameHash) {
      if (sh.nodes[idx].state.partCount() != 0 &&
          sh.nodes[idx].state.equals(s)) {
        return makeHandle(shardIdx, idx);
      }
    }
    return std::nullopt;
  }

  NodeId install(std::size_t rootIndex,
                 const std::function<bool(NodeId)>& finalized) {
    if (!expanded) {
      throw std::logic_error("ParallelExplorer::install before expand");
    }
    if (abortedForError) {
      // The private table stopped mid-flight: node ids would not be
      // canonical, so refuse rather than silently install a partial graph.
      throw std::logic_error(
          "ParallelExplorer::install after a failed expand");
    }
    if (g.porActive()) return installPor(rootIndex, finalized);
    const std::vector<ioa::TaskId>& tasks = sys.allTasks();
    const PHandle rootH = rootHandles.at(rootIndex);
    const NodeId rootId = internGraph(rootH, nullptr);
    if (finalized && finalized(rootId)) return rootId;

    // Canonical BFS: FIFO frontier, successors in task order -- the exact
    // discovery order of the serial explorer, so node ids, parents and
    // successor lists come out bit-for-bit identical. The FIFO runs through
    // the spill-capable queue, which preserves order exactly even when
    // segments move to disk, so the install order -- and with it every node
    // id -- is independent of whether spill engaged.
    SpilledFrontier fifo(spill.threshold, spill.segEntries, policy.spillDir);
    fifo.push(rootH);
    std::unordered_set<PHandle> enqueued{rootH};
    std::uint64_t item = 0;
    while (fifo.pop(&item)) {
      const PHandle h = static_cast<PHandle>(item);
      const NodeId gid = internGraph(h, nullptr);
      PNode* pn = nodePtr(h);
      if (pn->expanded) {
        const EdgeArena& arena = wstates[pn->edgeWorker].arena;
        const bool cached = g.cachedSuccessors(gid).has_value();
        // Resolve the whole run's action refs in one bulk pass, in edge
        // order: setParent would otherwise intern inserted children's
        // actions ahead of earlier edges whose targets were already
        // known, skewing the pool order away from the serial expansion's.
        if (!cached) {
          pinActionRun(arena, pn->edgeBegin, pn->edgeCount, ~std::uint64_t{0});
        }
        std::vector<Edge> edgesOut;
        if (!cached) edgesOut.reserve(pn->edgeCount);
        for (std::uint32_t k = 0; k < pn->edgeCount; ++k) {
          const CompactPEdge& pe = arena.at(pn->edgeBegin + k);
          bool inserted = false;
          const NodeId cid = internGraph(pe.to, &inserted);
          const ioa::Action& act = localAction(pe.action);
          if (inserted) {
            // First discovery happens here, from `gid` via `pe.task` --
            // the same parent the serial expansion would have recorded.
            g.setParent(cid, gid, tasks[pe.task], act);
          }
          if (!cached) {
            edgesOut.push_back(Edge{tasks[pe.task], act, cid});
          }
          if (!finalized || !finalized(cid)) {
            if (enqueued.insert(pe.to).second) fifo.push(pe.to);
          }
        }
        if (!cached) g.setSuccessors(gid, std::move(edgesOut));
      }  // else: truncated leaf (maxStates cap)
    }
    noteInstallSpill(fifo);
    return rootId;
  }

  // Fold one install FIFO's spill tallies into the run stats and the
  // metrics registry (expand() already flushed its own share).
  void noteInstallSpill(const SpilledFrontier& fifo) {
    statsOut.frontierSpill.segmentsSpilled += fifo.stats().segmentsSpilled;
    statsOut.frontierSpill.segmentsReloaded += fifo.stats().segmentsReloaded;
    if (policy.metrics && spill.threshold != 0) {
      policy.metrics->add("explorer.frontier.segments_spilled",
                          fifo.stats().segmentsSpilled);
      policy.metrics->add("explorer.frontier.reloads",
                          fifo.stats().segmentsReloaded);
    }
  }

  // POR install pass: a canonical BFS over GRAPH node ids that replays, at
  // every node, exactly the decision sequence the serial
  // StateGraph::reducedSuccessors() would take -- ample mask from the
  // memoized policy, ample targets interned in task order, the open-target
  // proviso against the graph's reduced tier as it exists at that moment,
  // full fallback interning the remaining targets in task order. Because
  // the proviso depends on global BFS order (not on what phase 1's
  // work-stealing happened to expand), a node phase 1 skipped or left
  // unexpanded is expanded on the spot through the graph's own serial path
  // (slow path); both paths produce bit-identical node numbering.
  NodeId installPor(std::size_t rootIndex,
                    const std::function<bool(NodeId)>& finalized) {
    const PorPolicy* por = g.porPolicy();
    const std::vector<ioa::TaskId>& tasks = sys.allTasks();
    const PHandle rootH = rootHandles.at(rootIndex);
    const NodeId rootId = internGraph(rootH, nullptr);
    handleOf.emplace(rootId, rootH);
    if (finalized && finalized(rootId)) return rootId;

    // Same spill-capable FIFO as the plain install pass: exact order
    // preservation keeps the proviso evaluation -- which depends on global
    // BFS order -- identical with and without spill.
    SpilledFrontier fifo(spill.threshold, spill.segEntries, policy.spillDir);
    fifo.push(rootId);
    DenseNodeSet enqueuedIds(g.size());
    enqueuedIds.insert(rootId);
    std::vector<const ioa::Action*> acts(tasks.size(), nullptr);
    std::vector<NodeId> targets;
    const auto enqueueTargets = [&]() {
      for (const NodeId cid : targets) {
        if (finalized && finalized(cid)) continue;
        if (enqueuedIds.insert(cid)) fifo.push(cid);
      }
      targets.clear();
    };
    std::uint64_t item = 0;
    while (fifo.pop(&item)) {
      const NodeId gid = static_cast<NodeId>(item);
      if (const auto cached = g.cachedReducedSuccessors(gid)) {
        // Already reduced-expanded (an earlier install over an overlapping
        // region): walk the cached list like the serial BFS would.
        for (const EdgeView e : *cached) targets.push_back(e.to);
        enqueueTargets();
        continue;
      }
      // Recover the private-table record, if phase 1 expanded this node.
      PNode* pn = nullptr;
      if (const auto it = handleOf.find(gid); it != handleOf.end()) {
        pn = nodePtr(it->second);
      } else if (const auto fh =
                     findTable(g.state(gid), g.state(gid).hash())) {
        handleOf.emplace(gid, *fh);
        installedIds.emplace(*fh, gid);
        pn = nodePtr(*fh);
      }
      if (pn && !pn->expanded) pn = nullptr;
      if (!pn) {
        if (policy.maxStates != 0 && truncated.load()) continue;  // leaf
        // Slow path: phase 1 never reached this node (it was a non-ample
        // child, reachable here only through an install-order proviso
        // fallback). Expand through the graph's serial reduced path.
        const EdgeList el = g.reducedSuccessors(gid);
        for (const EdgeView e : el) targets.push_back(e.to);
        enqueueTargets();
        continue;
      }
      // Fast path: replicate the serial decision from the phase-1 record.
      const EdgeArena& arena = wstates[pn->edgeWorker].arena;
      std::fill(acts.begin(), acts.end(), nullptr);
      for (std::uint32_t k = 0; k < pn->edgeCount; ++k) {
        const CompactPEdge& pe = arena.at(pn->edgeBegin + k);
        acts[pe.task] = &localAction(pe.action);
      }
      std::uint64_t enabledMask = 0;
      const std::uint64_t ample = por->ampleMask(acts, &enabledMask);
      bool committedReduced = false;
      if (ample != enabledMask) {
        // Intern the ample targets in task order (the serial pass-2
        // prefix), evaluating the proviso as we go. The bulk pin covers
        // exactly the ample-masked edges in edge order -- the order the
        // per-edge pins used to intern in.
        pinActionRun(arena, pn->edgeBegin, pn->edgeCount, ample);
        bool open = false;
        std::vector<Edge> reducedOut;
        for (std::uint32_t k = 0; k < pn->edgeCount; ++k) {
          const CompactPEdge& pe = arena.at(pn->edgeBegin + k);
          if (((ample >> pe.task) & 1) == 0) continue;
          bool inserted = false;
          const NodeId cid = internGraph(pe.to, &inserted);
          handleOf.emplace(cid, pe.to);
          const ioa::Action& act = localAction(pe.action);
          if (inserted) g.setParent(cid, gid, tasks[pe.task], act);
          if (cid != gid && !g.cachedReducedSuccessors(cid)) open = true;
          reducedOut.push_back(Edge{tasks[pe.task], act, cid});
        }
        if (open) {
          for (const Edge& e : reducedOut) targets.push_back(e.to);
          g.setReducedSuccessors(gid, std::move(reducedOut));
          por->noteReduced(
              static_cast<std::uint64_t>(std::popcount(enabledMask)),
              static_cast<std::uint64_t>(std::popcount(ample)));
          committedReduced = true;
        } else {
          g.notePorProvisoFallback();
          por->noteProvisoHit();
        }
      }
      if (!committedReduced) {
        // Full expansion (no proper ample set, or proviso fallback): the
        // remaining targets intern in task order, exactly like
        // successors() running after the serial pass-2 prefix.
        const bool cached = g.cachedSuccessors(gid).has_value();
        // Bulk-pin the full run (a preceding reduced pass's ample refs
        // dedup to memo hits, leaving the remaining refs to intern in edge
        // order -- the legacy per-edge sequence exactly).
        if (!cached) {
          pinActionRun(arena, pn->edgeBegin, pn->edgeCount, ~std::uint64_t{0});
        }
        std::vector<Edge> fullOut;
        if (!cached) fullOut.reserve(pn->edgeCount);
        for (std::uint32_t k = 0; k < pn->edgeCount; ++k) {
          const CompactPEdge& pe = arena.at(pn->edgeBegin + k);
          bool inserted = false;
          const NodeId cid = internGraph(pe.to, &inserted);
          handleOf.emplace(cid, pe.to);
          const ioa::Action& act = localAction(pe.action);
          if (inserted) g.setParent(cid, gid, tasks[pe.task], act);
          if (!cached) {
            fullOut.push_back(Edge{tasks[pe.task], act, cid});
          }
          targets.push_back(cid);
        }
        if (!cached) g.setSuccessors(gid, std::move(fullOut));
        g.markReducedAliasFull(gid);
      }
      enqueueTargets();
    }
    // Phase 1's `discovered` tally counts private-table states, which
    // under POR include non-ample children the reduced graph never
    // installs. Report the serial semantics instead: the node count of
    // the installed region (what serialExplore's `seen` would hold).
    statsOut.statesDiscovered = enqueuedIds.size();
    noteInstallSpill(fifo);
    return rootId;
  }
};

ParallelExplorer::ParallelExplorer(StateGraph& g,
                                   const ExplorationPolicy& policy)
    : impl_(std::make_unique<Impl>(g, policy)) {}

ParallelExplorer::~ParallelExplorer() = default;

void ParallelExplorer::expand(std::vector<ioa::SystemState> roots) {
  impl_->expand(std::move(roots));
}

NodeId ParallelExplorer::install(
    std::size_t rootIndex, const std::function<bool(NodeId)>& finalized) {
  return impl_->install(rootIndex, finalized);
}

const ExploreStats& ParallelExplorer::stats() const { return impl_->statsOut; }

unsigned resolveWorkers(unsigned threads) {
  return resolveWorkers(threads, std::thread::hardware_concurrency());
}

ExploreStats exploreReachable(StateGraph& g, NodeId root,
                              const ExplorationPolicy& policy) {
  if (resolveWorkers(policy.threads) == 1) {
    return serialExplore(g, root, policy);
  }
  ParallelExplorer ex(g, policy);
  std::vector<ioa::SystemState> roots;
  roots.push_back(g.state(root));
  ex.expand(std::move(roots));
  ex.install(0);
  return ex.stats();
}

void expandRegionParallel(StateGraph& g, NodeId root,
                          const ExplorationPolicy& policy,
                          const std::function<bool(NodeId)>& finalized) {
  if (resolveWorkers(policy.threads) == 1) {
    return;  // serial path expands lazily
  }
  if (g.cachedSuccessors(root)) return;  // already expanded
  ParallelExplorer ex(g, policy);
  std::vector<ioa::SystemState> roots;
  roots.push_back(g.state(root));
  ex.expand(std::move(roots));
  ex.install(0, finalized);
}

}  // namespace boosting::analysis
