// Work-stealing frontier-parallel exploration of the execution graph G(C).
//
// Every proof procedure in this reproduction -- valence classification
// (Section 3.2), the hook search of Lemma 5 / Fig. 3, and the full
// ConsensusAdversary pipeline -- reduces to BFS over G(C), and the
// expensive part of that BFS is state expansion: cloning a SystemState,
// applying the unique enabled action of each task, hashing and interning
// the result. The determinism assumptions of Section 3.1 (at most one
// action per applicable task, deterministic transition function) make the
// reachable set CONFLUENT: it is a property of the root configuration
// alone, independent of the order in which frontier nodes are expanded.
// That is exactly what licenses parallel expansion.
//
// The engine therefore runs in two phases:
//
//   Phase 1 (parallel): std::jthread workers expand the frontier into a
//   private table partitioned into hash-owned SHARDS (bit_ceil of the
//   worker count). Each shard owns the states whose canonical
//   hash lands in it: an open-addressing {hash, head} index with intrusive
//   same-hash chains (the same layout as StateGraph's interner), guarded
//   by one mutex per shard. Workers never pin successors through a global
//   installer; instead each worker keeps a per-shard BATCH BUFFER of
//   discovered successors and flushes a whole batch into the owning shard
//   under a single lock acquisition (flush on capacity, on a POR node
//   boundary, and before declaring itself idle). Successor records live in
//   per-worker chunked edge arenas with worker-local hash-consed action
//   pools, so the expansion hot path takes no lock outside shard
//   boundaries. Work is distributed with per-worker deques plus stealing;
//   termination is detected with an in-flight counter that also covers
//   batched-but-unflushed successors. The StateGraph itself is NEVER
//   touched from worker threads.
//
//   Phase 2 (serial, deterministic renumbering): the calling thread
//   replays a canonical BFS over the completed private table and interns
//   states into the StateGraph in EXACTLY the order the serial explorer
//   would have (FIFO frontier, successors in allTasks() order), installing
//   successor lists and first-discovery parents as it goes. This post-pass
//   rewrites shard-local handles into canonical node ids and resolves
//   worker-local action refs into the graph's global pool in first-use
//   order, so node ids, action intern indices, parents and witness paths
//   come out bit-for-bit identical to serial exploration -- regardless of
//   thread interleaving, worker count, or batch flush timing in phase 1.
//
// When the policy resolves to one worker (resolveWorkers) both phases are
// bypassed and the legacy serial BFS runs, so ExplorationPolicy{1}
// byte-identically reproduces the old behaviour.
#pragma once

#include <bit>
#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "analysis/state_graph.h"

namespace boosting::obs {
class Registry;
}  // namespace boosting::obs

namespace boosting::analysis {

struct ExplorationPolicy {
  // Number of expansion workers. 1 = serial legacy path; 0 = use
  // std::thread::hardware_concurrency() (see resolveWorkers).
  unsigned threads = 1;
  // Safety valve: stop expanding once this many states have been
  // discovered (0 = unbounded). A truncated parallel exploration is NOT
  // canonical -- the surviving frontier depends on thread scheduling -- so
  // the cap is meant for benchmarks and defensive limits, not for
  // certificate-producing runs.
  std::size_t maxStates = 0;
  // Optional observability sink. Engines keep plain local tallies and
  // flush them here only at phase boundaries, so a null registry costs
  // nothing on the hot path. (Appended after the original members: the
  // test suite aggregate-initializes ExplorationPolicy{threads, maxStates}.)
  obs::Registry* metrics = nullptr;
  // Test seam: invoked once per node expansion with the running expansion
  // count, on whichever thread performs the expansion. A throwing hook
  // exercises the worker-abort path; the engines guarantee the StateGraph
  // stays consistent (checkConsistent) when the hook throws.
  std::function<void(std::size_t)> expansionHook;
  // Out-of-core exploration (see DESIGN.md "Out-of-core exploration").
  // Non-zero turns on frontier spill: per-worker phase-1 queues shed their
  // cold (steal-end) entries to disk segments past a threshold, and the
  // phase-2 install FIFO (as well as the serial BFS frontier) runs through
  // an external-memory queue that preserves FIFO order exactly -- so spill
  // never changes node ids, intern indices or witnesses. The StateGraph's
  // own edge-arena cold tier is configured separately via SpillConfig;
  // drivers normally set both from the same --memory-budget. (Appended.)
  std::size_t memoryBudgetBytes = 0;
  // In-memory entries a frontier may hold before segments move to disk.
  // 0 = auto (65536 under a budget, spill disabled otherwise). (Appended.)
  std::size_t frontierSpillThreshold = 0;
  // Directory for the unlinked frontier spill files ("" = $TMPDIR, else
  // /tmp). (Appended.)
  std::string spillDir;
};

struct ExploreStats {
  // Per-worker phase-1 tallies, recorded by each worker into its own slot
  // and published by the join in expand().
  struct WorkerStats {
    std::uint64_t expanded = 0;      // nodes this worker expanded
    std::uint64_t steals = 0;        // work items taken from other queues
    std::uint64_t idleSpins = 0;     // empty sweeps over all queues
    std::uint64_t frontierPeak = 0;  // own-deque high-water mark
    std::uint64_t routed = 0;          // fresh states this worker's flushes
                                       // installed into shard tables
    std::uint64_t batchFlushes = 0;    // non-empty batch handoffs
    std::uint64_t maxBatchDepth = 0;   // largest single flushed batch
    std::uint64_t crossShardEdges = 0; // routed edges whose child shard
                                       // differs from the parent's shard
    std::uint64_t activePairs = 0;     // shards this worker ever batched to
    TransitionCache::Stats cache;    // worker-private memo tallies
  };

  // Aggregated routing tallies of the sharded phase-1 table (root interns
  // count into `routed` so routed == statesDiscovered holds exactly).
  struct ShardStats {
    unsigned count = 1;                // resolved shard count
    std::uint64_t routed = 0;          // fresh installs into shard tables
    std::uint64_t batchFlushes = 0;    // sum of per-worker flushes
    std::uint64_t maxQueueDepth = 0;   // largest batch any flush handed over
    std::uint64_t crossShardEdges = 0; // edges crossing shard ownership
    std::uint64_t activePairs = 0;     // distinct (worker, shard) pairs used
  };

  // Frontier-spill tallies (all zero unless the policy enables spill):
  // phase-1 worker-queue segments plus phase-2 install-FIFO segments (or
  // the serial BFS frontier's, on that path). Reloaded <= spilled always;
  // the difference is segments dropped by an abort.
  struct FrontierSpillStats {
    std::uint64_t segmentsSpilled = 0;
    std::uint64_t segmentsReloaded = 0;
  };

  // Time the canonical install spent waiting on phase 1. The install
  // always runs after the join, so this is always 0; the member stays only
  // because certbench/harness.cpp reads it for its install-wait layer.
  struct PipelineStats {
    std::uint64_t installWaitNs = 0;
  };

  std::size_t statesDiscovered = 0;  // states known to the engine afterwards
  std::size_t edgesComputed = 0;     // transitions evaluated during expansion
  unsigned threadsUsed = 1;
  bool truncated = false;  // maxStates cap was hit
  std::uint64_t frontierPeak = 0;          // serial path: BFS queue high-water
  std::vector<WorkerStats> perWorker;      // parallel path: one per worker
  ShardStats shard;                        // parallel path: routing tallies
  FrontierSpillStats frontierSpill;        // out-of-core frontier tallies
  PipelineStats pipeline;                  // read by certbench only
};

// The worker byte of a phase-1 action ref caps the worker count.
inline constexpr unsigned kMaxWorkers = 256;

// Resolved worker count of `threads` on a host with `hardware` hardware
// threads: 0 means one worker per hardware thread; the result is floored
// at 1 and capped at kMaxWorkers. Every engine entry point decides
// serial-vs-parallel from this value, so `threads = 0` on a one-core host
// takes the serial path.
constexpr unsigned resolveWorkers(unsigned threads, unsigned hardware) {
  unsigned w = threads == 0 ? hardware : threads;
  if (w < 1) w = 1;
  if (w > kMaxWorkers) w = kMaxWorkers;
  return w;
}

// resolveWorkers against this host's std::thread::hardware_concurrency().
unsigned resolveWorkers(unsigned threads);

// Pure shard-routing arithmetic, shared by the engine and the router fuzz
// battery (tests/analysis/shard_equivalence_test.cpp) so the properties the
// sharded table relies on -- every hash routes to exactly one shard, shard
// selection and in-shard probing consume disjoint hash bits, the resolved
// count is always a power of two -- are tested against the production code
// rather than a reimplementation.
namespace shard_router {

// The shard byte of a phase-1 handle caps the shard count.
inline constexpr unsigned kMaxShards = 256;

// Resolved shard count: one shard per worker, rounded up to a power of two
// and clamped to [1, kMaxShards].
constexpr unsigned resolveShardCount(unsigned workers) {
  std::size_t want = workers < 1 ? 1 : workers;
  want = std::bit_ceil(want);
  if (want > kMaxShards) want = kMaxShards;
  return static_cast<unsigned>(want);
}

// Owning shard of a canonical state hash: the low log2(shardCount) bits.
// shardCount must be a power of two.
constexpr std::size_t shardIndexOf(std::size_t hash, unsigned shardCount) {
  return hash & (shardCount - 1);
}

// First probe slot inside a shard's open-addressing index. Shard selection
// eats the low `shardBits` bits, so slot positions come from the bits above
// them -- otherwise every state in a shard would alias onto a fraction of
// the slots. indexMask is the (power-of-two) index size minus one.
constexpr std::size_t probeStart(std::size_t hash, unsigned shardBits,
                                 std::size_t indexMask) {
  return (hash >> shardBits) & indexMask;
}

}  // namespace shard_router

// Two-phase engine exposed as a class so that multiple roots can share one
// parallel expansion (the Lemma 4 scan over canonical initializations) and
// then be installed region by region in the serial-equivalent order.
class ParallelExplorer {
 public:
  ParallelExplorer(StateGraph& g, const ExplorationPolicy& policy);
  ~ParallelExplorer();
  ParallelExplorer(const ParallelExplorer&) = delete;
  ParallelExplorer& operator=(const ParallelExplorer&) = delete;

  // Phase 1: expand everything reachable from `roots` (union of regions)
  // with the configured worker count. Must be called exactly once, before
  // any install(). Rethrows the first worker exception, if any; after a
  // failed expand the explorer is poisoned (install() throws
  // std::logic_error) and the StateGraph -- which phase 1 never touches --
  // is still consistent, asserted via checkConsistent() in debug builds.
  void expand(std::vector<ioa::SystemState> roots);

  // Phase 2: canonically intern root `rootIndex`'s region into the
  // StateGraph and return the root's node id. `finalized`, when provided,
  // mirrors the caller's notion of already-finalized nodes (e.g.
  // ValenceAnalyzer::explored): such nodes are interned but not traversed,
  // exactly as the serial region BFS skips explored nodes. Idempotent per
  // node across calls: states and successor lists are installed at most
  // once.
  NodeId install(std::size_t rootIndex,
                 const std::function<bool(NodeId)>& finalized = nullptr);

  const ExploreStats& stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

// One-shot convenience: expand the full reachable region of `root` (which
// must already be interned in `g`) and install it canonically. When the
// policy resolves to one worker this is the plain serial BFS over
// StateGraph::successors() -- byte-identical to the legacy explorers.
ExploreStats exploreReachable(StateGraph& g, NodeId root,
                              const ExplorationPolicy& policy = {});

// Region pre-expansion helper shared by ValenceAnalyzer::explore and the
// hook search: when `policy` resolves to several workers and `root`'s
// successors are not cached yet, run the two-phase engine with `finalized`
// as the traversal fence; otherwise do nothing (the serial path expands
// lazily).
void expandRegionParallel(StateGraph& g, NodeId root,
                          const ExplorationPolicy& policy,
                          const std::function<bool(NodeId)>& finalized);

}  // namespace boosting::analysis
