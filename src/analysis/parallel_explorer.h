// Breadth-first exploration of the execution graph G(C).
//
// Every proof procedure in this reproduction -- valence classification
// (Section 3.2), the hook search of Lemma 5 / Fig. 3, and the full
// ConsensusAdversary pipeline -- reduces to BFS over G(C). exploreReachable
// is that BFS run eagerly over one root's whole region (FIFO frontier,
// successors in allTasks() order), for benches, tests and tools that want
// the region materialized up front; the valence analyzer, the hook search
// and the adversary expand the same graph lazily as they walk it. Both
// orders intern states identically, so node ids, parents and witnesses do
// not depend on which path expanded a node first.
//
// Exploration is serial: on every measured workload one thread beat four
// end to end, and the state-space reductions (symmetry, POR) are what make
// the checks tractable (see DESIGN.md "Why exploration is serial").
//
// The header keeps its historical name because the certificate benchmark's
// harness includes it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "analysis/state_graph.h"

namespace boosting::obs {
class Registry;
}  // namespace boosting::obs

namespace boosting::analysis {

struct ExplorationPolicy {
  // Accepted and ignored: kept only so the certificate benchmark's harness
  // (certbench/harness.cpp) still compiles. Exploration is always serial.
  unsigned threads = 1;
  // Safety valve: stop expanding once more than this many states have been
  // discovered (0 = unbounded). A truncated region is a BFS prefix; the
  // cap is meant for benchmarks and defensive limits, not for
  // certificate-producing runs.
  std::size_t maxStates = 0;
  // Optional observability sink. Engines keep plain local tallies and
  // flush them here only at phase boundaries, so a null registry costs
  // nothing on the hot path.
  obs::Registry* metrics = nullptr;
  // Test seam: invoked once per node expansion with the running expansion
  // count. A throwing hook interrupts the exploration between whole-node
  // expansions; the StateGraph stays consistent (checkConsistent).
  std::function<void(std::size_t)> expansionHook;
};

struct ExploreStats {
  // Kept only for the certificate benchmark's harness, which sums
  // perWorker[].steals; exploreReachable leaves perWorker empty.
  struct WorkerStats {
    std::uint64_t steals = 0;
  };

  // Kept only for the certificate benchmark's harness, which reads
  // installWaitNs for its install-wait layer; always 0.
  struct PipelineStats {
    std::uint64_t installWaitNs = 0;
  };

  std::size_t statesDiscovered = 0;  // nodes of the explored region
  std::size_t edgesComputed = 0;     // edges walked during expansion
  bool truncated = false;            // maxStates cap was hit
  std::uint64_t frontierPeak = 0;    // BFS queue high-water mark
  std::vector<WorkerStats> perWorker;  // harness-only, always empty
  PipelineStats pipeline;              // harness-only, always 0
};

// Expand the full reachable region of `root` (which must already be
// interned in `g`): a FIFO BFS over exploreSuccessors(), so the reduced
// tier when a POR policy is active and the full tier otherwise.
ExploreStats exploreReachable(StateGraph& g, NodeId root,
                              const ExplorationPolicy& policy = {});

}  // namespace boosting::analysis
