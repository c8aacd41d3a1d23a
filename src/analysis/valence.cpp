#include "analysis/valence.h"

#include "ioa/execution.h"
#include "obs/registry.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <stdexcept>

namespace boosting::analysis {

namespace {
constexpr std::uint8_t kReach0 = 1;
constexpr std::uint8_t kReach1 = 2;
constexpr std::uint8_t kExplored = 0x80;
}  // namespace

const char* valenceName(Valence v) {
  switch (v) {
    case Valence::Null: return "null";
    case Valence::Zero: return "0-valent";
    case Valence::One: return "1-valent";
    case Valence::Bivalent: return "bivalent";
  }
  return "?";
}

ValenceAnalyzer::ValenceAnalyzer(StateGraph& g, util::Value dec0,
                                 util::Value dec1)
    : g_(g), dec0_(std::move(dec0)), dec1_(std::move(dec1)) {}

void ValenceAnalyzer::ensureSize() {
  if (bits_.size() < g_.size()) bits_.resize(g_.size(), 0);
}

void ValenceAnalyzer::explore(NodeId root) {
  ensureSize();
  if (root < bits_.size() && (bits_[root] & kExplored) != 0) return;
  obs::Registry* reg = policy_.metrics;
  obs::ScopedTimer timer(reg, "phase.valence");
  std::uint64_t frontierPeak = 0;

  // Phase 1: BFS the unexplored region; collect predecessor lists and seed
  // direct-decision bits.
  std::vector<NodeId> region;
  preds_.reset();
  preds_.reserve(g_.size());
  std::deque<NodeId> frontier;
  std::vector<NodeId> worklist;

  auto enqueue = [&](NodeId id) {
    if ((bits_[id] & kExplored) != 0) return;  // old region: bits final
    // Use a transient mark distinct from kExplored to avoid re-enqueueing.
    bits_[id] |= 0x40;
  };
  auto marked = [&](NodeId id) {
    return id < bits_.size() && (bits_[id] & (0x40 | kExplored)) != 0;
  };

  if (!marked(root)) {
    enqueue(root);
    frontier.push_back(root);
  }
  std::uint64_t expansions = 0;
  try {
    while (!frontier.empty()) {
      frontierPeak = std::max<std::uint64_t>(frontierPeak, frontier.size());
      const NodeId id = frontier.front();
      frontier.pop_front();
      region.push_back(id);
      if (reg) reg->progress("valence.region_nodes", region.size());
      // Same per-expansion hook as exploreReachable: this BFS is the path
      // that actually expands nodes in a certificate run, so cooperative
      // cancellation/progress must fire here. A throw lands between
      // whole-node expansions, where the graph holds only fully installed
      // nodes/edges.
      if (policy_.expansionHook) policy_.expansionHook(++expansions);
      // Expanding `id` is the only step that grows the graph, so one resize
      // after it covers every node the edge loop can touch. Under an active
      // POR policy this walks (and seeds bits from) the ample subset only;
      // the cycle proviso inside reducedSuccessors() guarantees no decide
      // edge is postponed forever, so the backward fixpoint still computes
      // the true valence of every region node (see DESIGN.md).
      const EdgeList edges = g_.exploreSuccessors(id);
      ensureSize();
      for (const EdgeView e : edges) {
        // Direct decision edges seed the source node's bits.
        if (e.action.kind == ioa::ActionKind::EnvDecide) {
          if (auto v = ioa::decisionValue(e.action)) {
            std::uint8_t add = 0;
            if (*v == dec0_) add = kReach0;
            if (*v == dec1_) add = kReach1;
            if (add != 0 && (bits_[id] & add) != add) {
              bits_[id] |= add;
            }
          }
        }
        preds_.at(e.to).push_back(id);
        if (!marked(e.to)) {
          enqueue(e.to);
          frontier.push_back(e.to);
        }
      }
    }
  } catch (...) {
    assert(g_.checkConsistent() &&
           "ValenceAnalyzer::explore: StateGraph inconsistent after abort");
    // The transient 0x40 marks stay behind, but the analyzer object is
    // abandoned with the aborted analysis; the graph and memo are what
    // later runs reuse.
    if (reg) reg->add("explore.aborts", 1);
    throw;
  }

  // Phase 2: propagate decision reachability backwards to a fixpoint.
  // Seeds: every region node with direct bits, plus every already-explored
  // node (its bits are final) that has predecessors in the new region.
  for (NodeId id : region) {
    if ((bits_[id] & (kReach0 | kReach1)) != 0) worklist.push_back(id);
  }
  for (std::size_t to : preds_.keys()) {
    if ((bits_[to] & kExplored) != 0 &&
        (bits_[to] & (kReach0 | kReach1)) != 0) {
      worklist.push_back(static_cast<NodeId>(to));
    }
  }
  while (!worklist.empty()) {
    const NodeId id = worklist.back();
    worklist.pop_back();
    const std::uint8_t reach = bits_[id] & (kReach0 | kReach1);
    auto* fromList = preds_.find(id);
    if (!fromList) continue;
    for (NodeId p : *fromList) {
      if ((bits_[p] & kExplored) != 0) continue;  // final already
      if ((bits_[p] & reach) != reach) {
        bits_[p] |= reach;
        worklist.push_back(p);
      }
    }
  }

  for (NodeId id : region) {
    bits_[id] = static_cast<std::uint8_t>((bits_[id] & ~0x40) | kExplored);
  }
  exploredCount_ += region.size();
  if (reg) {
    reg->add("valence.regions", 1);
    reg->add("valence.region_nodes", region.size());
    reg->maxOf("valence.frontier_peak", frontierPeak);
  }
}

Valence ValenceAnalyzer::valence(NodeId id) const {
  if (id >= bits_.size() || (bits_[id] & kExplored) == 0) {
    throw std::logic_error("ValenceAnalyzer::valence: node not explored");
  }
  return static_cast<Valence>(bits_[id] & (kReach0 | kReach1));
}

bool ValenceAnalyzer::explored(NodeId id) const {
  return id < bits_.size() && (bits_[id] & kExplored) != 0;
}

bool ValenceAnalyzer::canDecide(NodeId id, int which) const {
  const Valence v = valence(id);
  if (which == 0) return v == Valence::Zero || v == Valence::Bivalent;
  return v == Valence::One || v == Valence::Bivalent;
}

}  // namespace boosting::analysis
