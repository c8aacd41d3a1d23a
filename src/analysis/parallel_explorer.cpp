#include "analysis/parallel_explorer.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <utility>
#include <vector>

#include "obs/registry.h"

namespace boosting::analysis {

namespace {

// Flush the tallies of one exploration into the registry (explore.*).
void flushExploreStats(obs::Registry* reg, const ExploreStats& stats) {
  if (!reg) return;
  reg->add("explore.states_discovered", stats.statesDiscovered);
  reg->add("explore.edges_computed", stats.edgesComputed);
  reg->maxOf("explore.frontier_peak", stats.frontierPeak);
  if (stats.truncated) reg->add("explore.truncations", 1);
}

}  // namespace

ExploreStats exploreReachable(StateGraph& g, NodeId root,
                              const ExplorationPolicy& policy) {
  ExploreStats stats;
  std::deque<NodeId> frontier{root};
  // Visited marks by node id, grown with the graph.
  std::vector<char> seen(g.size());
  const auto firstVisit = [&seen](NodeId x) {
    if (x >= seen.size()) {
      seen.resize(std::max<std::size_t>(x + 1, 2 * seen.size()));
    }
    return !std::exchange(seen[x], 1);
  };
  firstVisit(root);
  std::uint64_t visited = 1;  // the root
  std::uint64_t expansions = 0;
  try {
    while (!frontier.empty()) {
      if (policy.maxStates != 0 && visited > policy.maxStates) {
        stats.truncated = true;
        break;
      }
      stats.frontierPeak = std::max<std::uint64_t>(stats.frontierPeak,
                                                   frontier.size());
      const NodeId x = frontier.front();
      frontier.pop_front();
      if (policy.expansionHook) policy.expansionHook(++expansions);
      // Reduced tier when a POR policy is active, full tier otherwise --
      // the same switch the valence BFS takes.
      for (const NodeId to : g.exploreSuccessors(x).targets()) {
        ++stats.edgesComputed;
        if (firstVisit(to)) {
          ++visited;
          frontier.push_back(to);
        }
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
  stats.statesDiscovered = visited;
  flushExploreStats(policy.metrics, stats);
  return stats;
}

}  // namespace boosting::analysis
