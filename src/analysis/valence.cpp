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
constexpr std::uint8_t kReachUnknown = 0xff;  // reach_ entry not filled
constexpr std::uint8_t kInRegion = 0x40;
constexpr std::uint8_t kExplored = 0x80;
constexpr std::uint32_t kNoLocal = static_cast<std::uint32_t>(-1);
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
  if (bits_.size() < g_.size()) {
    bits_.resize(g_.size(), 0);
    local_.resize(g_.size(), kNoLocal);
  }
}

void ValenceAnalyzer::explore(NodeId root) {
  ensureSize();
  if (root < bits_.size() && (bits_[root] & kExplored) != 0) return;
  obs::Registry* reg = policy_.metrics;
  obs::ScopedTimer timer(reg, "phase.valence");
  std::uint64_t frontierPeak = 0;

  // Phase 1: BFS the unexplored region and seed direct-decision bits.
  // A region node's CSR index is its BFS position (FIFO: the enqueue order
  // is the pop order).
  std::vector<NodeId> region;
  std::deque<NodeId> frontier;
  std::vector<NodeId> worklist;

  // Only unmarked nodes are enqueued: an explored node's bits are final.
  auto enqueue = [&](NodeId id) {
    // A transient mark distinct from kExplored avoids re-enqueueing.
    bits_[id] |= kInRegion;
    local_[id] = static_cast<std::uint32_t>(region.size() + frontier.size());
    frontier.push_back(id);
  };
  auto marked = [&](NodeId id) {
    return id < bits_.size() && (bits_[id] & (kInRegion | kExplored)) != 0;
  };

  if (!marked(root)) enqueue(root);
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
      for (auto it = edges.begin(); it != edges.end(); ++it) {
        // Direct decision edges seed the source node's bits.
        bits_[id] |= reachOf(it.actionIndex());
        if (!marked(it.to())) enqueue(it.to());
      }
    }
  } catch (...) {
    assert(g_.checkConsistent() &&
           "ValenceAnalyzer::explore: StateGraph inconsistent after abort");
    // The transient kInRegion marks stay behind, but the analyzer object
    // is abandoned with the aborted analysis; the graph and memo are what
    // later runs reuse. The CSR indices are cleared all the same.
    for (NodeId id : region) local_[id] = kNoLocal;
    for (NodeId id : frontier) local_[id] = kNoLocal;
    if (reg) reg->add("explore.aborts", 1);
    throw;
  }

  // Phase 2: the region's reverse edges as one CSR, built in two passes
  // over the (now cached) successor lists. Targets outside the region get
  // indices after the region's; the already-explored ones among them have
  // final bits and seed phase 3.
  const auto regionEdges = [this](NodeId id) {
    return g_.exploreSuccessors(id).targets();
  };
  std::vector<NodeId> outside;
  std::vector<std::uint32_t> begin(region.size() + 1, 0);
  for (NodeId id : region) {
    for (const NodeId to : regionEdges(id)) {
      std::uint32_t& k = local_[to];
      if (k == kNoLocal) {
        k = static_cast<std::uint32_t>(region.size() + outside.size());
        outside.push_back(to);
        begin.push_back(0);
      }
      ++begin[k];
    }
  }
  std::uint32_t sum = 0;
  for (std::uint32_t& b : begin) {
    const std::uint32_t c = b;
    b = sum;
    sum += c;
  }
  std::vector<NodeId> preds(sum);
  {
    std::vector<std::uint32_t> fill(begin.begin(), begin.end() - 1);
    for (NodeId id : region) {
      for (const NodeId to : regionEdges(id)) {
        preds[fill[local_[to]]++] = id;
      }
    }
  }

  // Phase 3: propagate decision reachability backwards to a fixpoint.
  // Seeds: every region node with direct bits, plus every already-explored
  // node (its bits are final) that has predecessors in the new region.
  for (NodeId id : region) {
    if ((bits_[id] & (kReach0 | kReach1)) != 0) worklist.push_back(id);
  }
  for (NodeId to : outside) {
    if ((bits_[to] & kExplored) != 0 &&
        (bits_[to] & (kReach0 | kReach1)) != 0) {
      worklist.push_back(to);
    }
  }
  while (!worklist.empty()) {
    const NodeId id = worklist.back();
    worklist.pop_back();
    const std::uint8_t reach = bits_[id] & (kReach0 | kReach1);
    const std::uint32_t k = local_[id];
    for (std::uint32_t at = begin[k]; at < begin[k + 1]; ++at) {
      const NodeId p = preds[at];
      if ((bits_[p] & reach) != reach) {
        bits_[p] |= reach;
        worklist.push_back(p);
      }
    }
  }

  for (NodeId id : region) {
    bits_[id] = static_cast<std::uint8_t>((bits_[id] & ~kInRegion) | kExplored);
    local_[id] = kNoLocal;
  }
  for (NodeId id : outside) local_[id] = kNoLocal;
  exploredCount_ += region.size();
  if (reg) {
    reg->add("valence.regions", 1);
    reg->add("valence.region_nodes", region.size());
    reg->maxOf("valence.frontier_peak", frontierPeak);
  }
}

std::uint8_t ValenceAnalyzer::reachOf(std::uint32_t action) {
  if (action >= reach_.size()) {
    reach_.resize(g_.actionPoolSize(), kReachUnknown);
  }
  std::uint8_t& r = reach_[action];
  if (r == kReachUnknown) {
    r = 0;
    const ioa::Action& a = g_.actionAt(action);
    if (a.kind == ioa::ActionKind::EnvDecide) {
      if (auto v = ioa::decisionValue(a)) {
        if (*v == dec0_) r = kReach0;
        if (*v == dec1_) r = kReach1;
      }
    }
  }
  return r;
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
