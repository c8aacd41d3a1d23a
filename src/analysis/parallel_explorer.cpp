#include "analysis/parallel_explorer.h"

#include <algorithm>
#include <cassert>

#include "analysis/dense.h"
#include "analysis/pager.h"
#include "obs/registry.h"

namespace boosting::analysis {

namespace {

// Resolved frontier-spill geometry (see ExplorationPolicy): the frontier
// queue is what can grow without bound, so it is what spills.
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

// Flush the tallies of one exploration into the registry (explore.*).
void flushExploreStats(obs::Registry* reg, const ExploreStats& stats,
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

}  // namespace

ExploreStats exploreReachable(StateGraph& g, NodeId root,
                              const ExplorationPolicy& policy) {
  ExploreStats stats;
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
           "exploreReachable: StateGraph inconsistent after aborted BFS");
    if (policy.metrics) policy.metrics->add("explore.aborts", 1);
    throw;
  }
  stats.statesDiscovered = seen.size();
  stats.frontierSpill.segmentsSpilled = frontier.stats().segmentsSpilled;
  stats.frontierSpill.segmentsReloaded = frontier.stats().segmentsReloaded;
  flushExploreStats(policy.metrics, stats, spill.threshold != 0);
  return stats;
}

}  // namespace boosting::analysis
