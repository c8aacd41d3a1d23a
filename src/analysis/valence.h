// Valence analysis (Section 3.2).
//
// A finite failure-free input-first execution is 0-valent if some
// failure-free extension contains decide(0) and none contains decide(1);
// 1-valent symmetrically; bivalent if both decisions are reachable. Under
// determinism, valence is a property of the final configuration, so the
// analyzer computes, for every node of the reachable state graph, which
// decision values label edges reachable from it -- an exhaustive
// decision-reachability computation with reverse propagation, making the
// valence answer a *certificate* rather than a sample.
//
// A fourth class, Null, covers configurations from which NO decision is
// reachable; a Null initialization is already a termination-violation
// certificate (no extension at all decides, in particular no fair one).
#pragma once

#include <cstdint>

#include "analysis/parallel_explorer.h"
#include "analysis/state_graph.h"
#include "util/value.h"

namespace boosting::analysis {

enum class Valence : std::uint8_t { Null = 0, Zero = 1, One = 2, Bivalent = 3 };

const char* valenceName(Valence v);

class ValenceAnalyzer {
 public:
  // The two decision values of binary consensus; custom values may be
  // supplied for other binary-decision problems.
  explicit ValenceAnalyzer(StateGraph& g, util::Value dec0 = util::Value(0),
                           util::Value dec1 = util::Value(1));

  // Exploration policy for region expansion: the metrics sink and the
  // per-expansion hook (see analysis/parallel_explorer.h).
  void setPolicy(const ExplorationPolicy& policy) { policy_ = policy; }
  const ExplorationPolicy& policy() const { return policy_; }

  // Expand the full failure-free reachable region of `root` and compute
  // decision reachability for every node in it. Idempotent; regions of
  // successive roots may overlap.
  void explore(NodeId root);

  // Valence of an explored node.
  Valence valence(NodeId id) const;
  bool explored(NodeId id) const;

  // Can a decide(which) action occur in some failure-free extension?
  bool canDecide(NodeId id, int which) const;

  std::size_t exploredCount() const { return exploredCount_; }

 private:
  StateGraph& g_;
  util::Value dec0_, dec1_;
  ExplorationPolicy policy_;
  // Per node: bit0 = decide(0) reachable, bit1 = decide(1) reachable,
  // bit6 = in the region explore() is walking, bit7 = explored.
  std::vector<std::uint8_t> bits_;
  // Per node: its index in the reverse CSR of the explore() call in
  // progress (region nodes first, then edge targets outside the region), or
  // kNoLocal. Every entry is reset before explore() returns, so a call
  // costs O(region), not O(graph).
  std::vector<std::uint32_t> local_;
  std::size_t exploredCount_ = 0;
  // Per action-pool index: the decision bits (kReach0/kReach1, or 0) an
  // edge with that action seeds at its source, filled on first sight, so
  // the region BFS reads one byte per edge.
  std::vector<std::uint8_t> reach_;

  void ensureSize();
  std::uint8_t reachOf(std::uint32_t action);
};

}  // namespace boosting::analysis
