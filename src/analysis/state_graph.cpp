#include "analysis/state_graph.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>

namespace boosting::analysis {

void StateGraph::validateTaskCapacity(std::size_t taskCount,
                                      std::uint32_t chunkCapacity) {
  if (taskCount >= (std::size_t{1} << 16)) {
    throw std::invalid_argument(
        "StateGraph: " + std::to_string(taskCount) +
        " tasks overflow the 16-bit task index the hook scans record per "
        "visited node (at most 65535 tasks are supported)");
  }
  if (taskCount >= chunkCapacity) {
    throw std::invalid_argument(
        "StateGraph: edge chunk capacity " + std::to_string(chunkCapacity) +
        " cannot hold one full successor list for " +
        std::to_string(taskCount) +
        " tasks; raise StateGraph::kEdgeChunkShift");
  }
}

StateGraph::StateGraph(const ioa::System& sys,
                       std::shared_ptr<const SymmetryPolicy> symmetry,
                       std::shared_ptr<const PorPolicy> por,
                       std::shared_ptr<TransitionCache> memo)
    : sys_(sys), symmetry_(std::move(symmetry)), por_(std::move(por)),
      width_(static_cast<std::size_t>(sys.processCount()) +
             static_cast<std::size_t>(sys.serviceCount())),
      rows_(width_),
      memo_(memo ? std::move(memo) : std::make_shared<TransitionCache>(sys)),
      transitionsBase_(memo_->stats()),
      nextIds_(width_),
      canonIds_(width_) {
  // The memos and the reduction only make sense against the exact System
  // object they were built for (the cache snapshots its task list and keys
  // on the ids of its slot representatives; the policy's tables index its
  // tasks).
  if (&memo_->system() != &sys_) {
    throw std::invalid_argument(
        "StateGraph: TransitionCache was built for a different System object");
  }
  if (por_ && &por_->system() != &sys_) {
    throw std::invalid_argument(
        "StateGraph: PorPolicy was built for a different System object");
  }
  validateTaskCapacity(sys_.allTasks().size(), kEdgeChunkCapacity);
#ifndef NDEBUG
  writer_ = std::this_thread::get_id();
#endif
}

void StateGraph::assertWriter() const {
#ifndef NDEBUG
  // Single-writer contract: all mutating calls must come from the thread
  // that constructed the graph.
  assert(writer_ == std::this_thread::get_id() &&
         "StateGraph mutated from a non-owner thread (single-writer "
         "contract violated)");
#endif
}

NodeId StateGraph::intern(const ioa::SystemState& s) {
  assertWriter();
  if (s.partCount() != width_) {
    throw std::invalid_argument(
        "StateGraph::intern: state has " + std::to_string(s.partCount()) +
        " slots, the system " + std::to_string(width_));
  }
  // Orbit reduction: intern the canonical representative instead.
  std::optional<SymmetryPolicy::CanonResult> c;
  if (symmetryActive()) c = symmetry_->canonicalize(s);
  memo_->slotCanon().canonicalize(c ? c->state : s, canonIds_.data());
  return internRow(canonIds_.data()).id;
}

StateGraph::InternResult StateGraph::internSuccessor(
    const std::uint32_t* ids) {
  if (symmetryActive()) {
    memo_->slotCanon().materialize(ids, width_, &symScratch_);
    if (auto c = symmetry_->canonicalize(symScratch_)) {
      memo_->slotCanon().canonicalize(c->state, canonIds_.data());
      return internRow(canonIds_.data());
    }
  }
  return internRow(ids);
}

const ioa::SystemState& StateGraph::state(NodeId id) const {
  assert(static_cast<std::size_t>(id) < size());
  auto it = materialized_.find(id);
  if (it != materialized_.end()) return it->second;
  assertWriter();
  ioa::SystemState& s = materialized_[id];
  memo_->slotCanon().materialize(row(id), width_, &s);
  return s;
}

void StateGraph::noteDiscovery(const InternResult& r, NodeId from) {
  if (!r.inserted && parent_[r.id] != kOrphan) return;
  // First discovery (or the first committed list to reach an orphan):
  // record the parent so that witness paths can be reconstructed
  // (parentEdge re-derives the task). Externally interned roots keep
  // kNoNode and terminate pathTo().
  parent_[r.id] = from;
  discovered_.push_back(r.id);
}

void StateGraph::orphanDiscovered() {
  for (const NodeId y : discovered_) parent_[y] = kOrphan;
  discovered_.clear();
}

StateGraph::InternResult StateGraph::internRow(const std::uint32_t* ids) {
  assertWriter();
  const RowTable::Probe p = rows_.find(ids);
  if (p.id != RowTable::kNone) {
    ++stats_.dedupHits;
    return {p.id, false};
  }
  succ_.emplace_back();
  reducedSucc_.emplace_back();
  parent_.push_back(kNoNode);
  ++stats_.statesDiscovered;
  return {rows_.insert(p, ids), true};
}

NodeId* StateGraph::reserveEdgeRun(std::uint32_t need, std::uint32_t* base) {
  if (edgeChunks_.empty() || kEdgeChunkCapacity - edgeUsed_ < need) {
    if (!edgeChunks_.empty()) {
      edgeSlackSlots_ += kEdgeChunkCapacity - edgeUsed_;
    }
    edgeChunks_.push_back(
        std::make_unique_for_overwrite<NodeId[]>(kEdgeChunkCapacity));
    edgeUsed_ = 0;
  }
  *base = static_cast<std::uint32_t>(
      ((edgeChunks_.size() - 1) << kEdgeChunkShift) | edgeUsed_);
  return edgeChunks_.back().get() + edgeUsed_;
}

EdgeList StateGraph::successors(NodeId id) {
  if (succ_[id].begin != kUnexpanded) return fullList(id);
  assertWriter();
  const std::vector<ioa::TaskId>& tasks = sys_.allTasks();
  // Reserve the worst case (every task applicable) up front: interning
  // below never touches the arena, so the run stays contiguous and the
  // unused tail is handed to the next expansion.
  std::uint32_t base = 0;
  NodeId* run = reserveEdgeRun(static_cast<std::uint32_t>(tasks.size()),
                               &base);
  std::uint32_t count = 0;
  // Row chunks never relocate: `ids` stays valid across insertions.
  const std::uint32_t* ids = row(id);
  discovered_.clear();
  try {
    for (std::size_t ti = 0; ti < tasks.size(); ++ti) {
      if (memo_->step(ids, ti, nextIds_.data()) == TransitionCache::kDisabled) {
        continue;
      }
      const InternResult r = internSuccessor(nextIds_.data());
      noteDiscovery(r, id);
      run[count++] = r.id;
    }
  } catch (...) {
    orphanDiscovered();
    throw;
  }
  edgeUsed_ += count;
  succ_[id] = SuccIndex{base, count};
  stats_.edgesDiscovered += count;
  ++stats_.expansions;
  return fullList(id);
}

std::optional<EdgeList> StateGraph::cachedSuccessors(NodeId id) const {
  if (static_cast<std::size_t>(id) >= succ_.size() ||
      succ_[id].begin == kUnexpanded) {
    return std::nullopt;
  }
  return fullList(id);
}

EdgeList StateGraph::reducedSuccessors(NodeId id) {
  if (auto cached = cachedReducedSuccessors(id)) return *cached;
  assertWriter();
  if (!porActive()) {
    // No policy: the reduced tier degenerates to an alias of the full one.
    const EdgeList full = successors(id);
    reducedSucc_[id].begin = kAliasFull;
    return full;
  }
  // Pass 1: the ample decision, from the row's enabled classes. No
  // successor is built yet.
  const std::uint32_t* ids = row(id);
  const std::uint32_t decision = por_->ampleDecision(ids, *memo_);
  const std::uint64_t ampleMask = memo_->decisionAt(decision).ample;
  const std::uint64_t enabledMask = memo_->decisionAt(decision).enabled;
  if (ampleMask == enabledMask) {
    // No proper ample set: the full list IS the reduced list.
    const EdgeList full = successors(id);
    reducedSucc_[id].begin = kAliasFull;
    return full;
  }
  // Pass 2: intern the ample targets, in task order -- exactly the prefix
  // of work successors() would do.
  std::uint32_t base = 0;
  NodeId* run = reserveEdgeRun(
      static_cast<std::uint32_t>(std::popcount(ampleMask)), &base);
  std::uint32_t count = 0;
  bool open = false;  // C3: some ample target not yet reduced-expanded
  discovered_.clear();
  try {
    for (std::uint64_t m = ampleMask; m != 0; m &= m - 1) {
      const std::size_t ti = static_cast<std::size_t>(std::countr_zero(m));
      (void)memo_->step(ids, ti, nextIds_.data());
      const InternResult r = internSuccessor(nextIds_.data());
      noteDiscovery(r, id);
      if (r.id != id && reducedSucc_[r.id].begin == kUnexpanded) open = true;
      run[count++] = r.id;
    }
  } catch (...) {
    orphanDiscovered();
    throw;
  }
  if (!open) {
    // Cycle proviso: every ample move stays inside already reduced-expanded
    // territory (or loops on the node itself), so taking only the ample
    // subset could postpone the skipped tasks forever. Expand fully; the
    // reserved run is uncommitted and successors() reuses the space. A
    // fresh target would have been open, so this pass inserted no node
    // (discovered_ is empty unless it adopted an orphan, which the full
    // list then adopts again): every parent recorded at `id` belongs to a
    // committed list, which is what parentEdge relies on.
    orphanDiscovered();
    por_->noteProvisoHit();
    ++stats_.provisoFallbacks;
    const EdgeList full = successors(id);
    reducedSucc_[id].begin = kAliasFull;
    return full;
  }
  edgeUsed_ += count;
  reducedSucc_[id] = SuccIndex{base, decision};
  stats_.reducedEdges += count;
  ++stats_.reducedExpansions;
  por_->noteReduced(static_cast<std::uint64_t>(std::popcount(enabledMask)),
                    count);
  return reducedList(id);
}

std::optional<EdgeList> StateGraph::cachedReducedSuccessors(NodeId id) const {
  if (static_cast<std::size_t>(id) >= reducedSucc_.size() ||
      reducedSucc_[id].begin == kUnexpanded) {
    return std::nullopt;
  }
  if (reducedSucc_[id].begin == kAliasFull) {
    // The alias is only set once the full list is cached.
    return fullList(id);
  }
  return reducedList(id);
}

std::optional<Edge> StateGraph::successorVia(NodeId id,
                                             std::size_t taskIndex) {
  const EdgeList edges = successors(id);
  const std::uint32_t* ids = row(id);
  const std::uint32_t ai = memo_->filledAction(ids, taskIndex);
  if (ai == TransitionCache::kDisabled) return std::nullopt;
  // The full list holds the enabled tasks in task order: the edge sits at
  // the task's rank among them.
  std::size_t rank = 0;
  for (std::size_t ti = 0; ti < taskIndex; ++ti) {
    if (memo_->filledAction(ids, ti) != TransitionCache::kDisabled) ++rank;
  }
  return Edge{taskAt(taskIndex), actionAt(ai), edges.data()[rank]};
}

std::optional<Edge> StateGraph::successorVia(NodeId id, const ioa::TaskId& e) {
  const std::vector<ioa::TaskId>& tasks = sys_.allTasks();
  const auto it = std::find(tasks.begin(), tasks.end(), e);
  if (it == tasks.end()) return std::nullopt;
  return successorVia(id, static_cast<std::size_t>(it - tasks.begin()));
}

Edge StateGraph::parentEdge(NodeId id) const {
  const NodeId from = parent_[id];
  // The parent's committed lists, earliest expansion first.
  const SuccIndex& full = succ_[from];
  const SuccIndex& red = reducedSucc_[from];
  std::optional<EdgeList> lists[2];
  const bool hasFull = full.begin != kUnexpanded;
  const bool hasReduced = red.begin != kUnexpanded && red.begin != kAliasFull;
  if (hasFull && hasReduced && red.begin < full.begin) {
    lists[0] = reducedList(from);
    lists[1] = fullList(from);
  } else {
    if (hasFull) lists[0] = fullList(from);
    if (hasReduced) lists[1] = reducedList(from);
  }
  for (const std::optional<EdgeList>& l : lists) {
    if (!l) continue;
    for (auto it = l->begin(); it != l->end(); ++it) {
      if (it.to() == id) {
        return Edge{taskAt(it.taskIndex()), actionAt(it.actionIndex()), id};
      }
    }
  }
  throw std::logic_error("StateGraph::parentEdge: no list of the parent "
                         "reaches the node");
}

bool StateGraph::checkConsistent(std::string* why) const {
  auto fail = [&](const char* msg) {
    if (why) *why = msg;
    return false;
  };
  const std::size_t n = size();
  if (succ_.size() != n) return fail("succ_ size != size()");
  if (reducedSucc_.size() != n) return fail("reducedSucc_ size != size()");
  if (parent_.size() != n) return fail("parent_ size != size()");
  if (stats_.statesDiscovered != n) {
    return fail("statesDiscovered != size()");
  }
  // Every row id must be one the memo's table issued for that very slot:
  // ids are trusted by the transition cache and by slotState().
  const ioa::SlotCanonTable& canon = memo_->slotCanon();
  for (std::size_t id = 0; id < n; ++id) {
    const std::uint32_t* r = row(static_cast<NodeId>(id));
    for (std::size_t k = 0; k < width_; ++k) {
      if (r[k] >= canon.size()) {
        return fail("row holds an id outside the memo's slot table");
      }
      if (canon.rep(r[k]).slot != k) {
        return fail("row holds the id of another slot's representative");
      }
    }
  }
  for (const auto& [id, s] : materialized_) {
    if (static_cast<std::size_t>(id) >= n) {
      return fail("materialized state of an out-of-range node");
    }
  }
  // Every node sits in exactly one index slot, reachable from its home.
  if (!rows_.checkConsistent(why)) return false;
  // A list's tasks are re-derived from its source row, so its count must
  // be the number of tasks that re-derivation lists: the enabled tasks of
  // a full list, the memoized ample mask's bits of a reduced one.
  const std::size_t nTasks = sys_.allTasks().size();
  const auto targetsInRange = [n](const EdgeList& l) {
    for (const NodeId to : l.targets()) {
      if (static_cast<std::size_t>(to) >= n) return false;
    }
    return true;
  };
  std::uint64_t edges = 0;
  std::uint64_t expanded = 0;
  for (std::size_t id = 0; id < n; ++id) {
    if (succ_[id].begin == kUnexpanded) continue;
    ++expanded;
    const std::uint32_t* ids = row(static_cast<NodeId>(id));
    std::uint32_t enabled = 0;
    for (std::size_t ti = 0; ti < nTasks; ++ti) {
      if (memo_->filledAction(ids, ti) != TransitionCache::kDisabled) {
        ++enabled;
      }
    }
    if (enabled != succ_[id].count) {
      return fail("full list count != enabled tasks of its row");
    }
    if (!targetsInRange(fullList(static_cast<NodeId>(id)))) {
      return fail("edge targets out-of-range node");
    }
    edges += succ_[id].count;
  }
  if (edges != stats_.edgesDiscovered) {
    return fail("edgesDiscovered != sum of cached successor lists");
  }
  if (expanded != stats_.expansions) {
    return fail("expansions != number of cached successor lists");
  }
  std::uint64_t redEdges = 0;
  std::uint64_t redExpanded = 0;
  for (std::size_t id = 0; id < n; ++id) {
    if (reducedSucc_[id].begin == kUnexpanded) continue;
    if (reducedSucc_[id].begin == kAliasFull) {
      if (succ_[id].begin == kUnexpanded) {
        return fail("reduced alias-full without cached full list");
      }
      continue;
    }
    ++redExpanded;
    const std::uint32_t* ids = row(static_cast<NodeId>(id));
    const std::uint32_t decision = reducedSucc_[id].count;
    if (decision >= memo_->decisionCount() ||
        memo_->findAmpleDecision(ids) != decision) {
      return fail("reduced list keeps another row's ample decision");
    }
    const TransitionCache::AmpleDecision& d = memo_->decisionAt(decision);
    if ((d.ample & ~d.enabled) != 0 || d.ample == d.enabled) {
      return fail("reduced list's ample mask is not a proper enabled subset");
    }
    for (std::uint64_t m = d.ample; m != 0; m &= m - 1) {
      const auto ti = static_cast<std::size_t>(std::countr_zero(m));
      if (ti >= nTasks ||
          memo_->filledAction(ids, ti) == TransitionCache::kDisabled) {
        return fail("reduced list's ample mask lists a disabled task");
      }
    }
    const EdgeList l = reducedList(static_cast<NodeId>(id));
    if (!targetsInRange(l)) {
      return fail("reduced edge targets out-of-range node");
    }
    redEdges += l.size();
  }
  if (redEdges != stats_.reducedEdges) {
    return fail("reducedEdges != sum of proper reduced lists");
  }
  if (redExpanded != stats_.reducedExpansions) {
    return fail("reducedExpansions != number of proper reduced lists");
  }
  // Every parent must have a committed list that reaches the node, or
  // pathTo cannot re-derive the discovering edge.
  for (std::size_t id = 0; id < n; ++id) {
    const NodeId from = parent_[id];
    if (from == kNoNode || from == kOrphan) continue;
    if (static_cast<std::size_t>(from) >= n) {
      return fail("parent references out-of-range node");
    }
    bool reached = false;
    for (const std::optional<EdgeList>& l :
         {cachedSuccessors(from), cachedReducedSuccessors(from)}) {
      if (!l) continue;
      const std::span<const NodeId> t = l->targets();
      if (std::find(t.begin(), t.end(), static_cast<NodeId>(id)) != t.end()) {
        reached = true;
      }
    }
    if (!reached) return fail("no list of a node's parent reaches it");
  }
  return true;
}

void StateGraph::throwOrphan(const char* what, NodeId id) {
  throw std::logic_error(std::string("StateGraph::") + what + ": node " +
                         std::to_string(id) +
                         " was discovered by an expansion that threw, and "
                         "no committed successor list reaches it yet");
}

NodeId StateGraph::rootOf(NodeId id) const {
  NodeId cur = id;
  std::size_t hops = 0;
  while (parent_[cur] != kNoNode) {
    if (parent_[cur] == kOrphan) throwOrphan("rootOf", cur);
    cur = parent_[cur];
    if (++hops > size()) {
      throw std::logic_error("StateGraph::rootOf: parent cycle detected");
    }
  }
  return cur;
}

std::vector<Edge> StateGraph::pathTo(NodeId id) const {
  // Collect the parent chain first (node ids only), then re-derive the
  // discovering edges front to back.
  std::vector<NodeId> chain;
  NodeId cur = id;
  while (parent_[cur] != kNoNode) {
    if (parent_[cur] == kOrphan) throwOrphan("pathTo", cur);
    chain.push_back(cur);
    cur = parent_[cur];
    if (chain.size() > size()) {
      throw std::logic_error("StateGraph::pathTo: parent cycle detected");
    }
  }
  std::vector<Edge> out;
  out.reserve(chain.size());
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    out.push_back(parentEdge(*it));
  }
  return out;
}

StateGraph::MemoryStats StateGraph::memoryStats() const {
  MemoryStats ms;
  // Row chunks, plus the materialization side store: per entry its state
  // and an unordered_map node (key and next pointer), plus the buckets.
  ms.bytesStates =
      rows_.rowBytes() + materialized_.bucket_count() * sizeof(void*);
  for (const auto& [id, s] : materialized_) {
    ms.bytesStates += sizeof(id) + sizeof(void*) + s.shallowBytes();
  }
  ms.bytesEdges =
      static_cast<std::uint64_t>(edgeChunks_.size()) * kEdgeChunkCapacity *
          sizeof(NodeId) +
      memo_->actionBytes();
  ms.bytesIndex = rows_.indexBytes() +
                  parent_.capacity() * sizeof(NodeId) +
                  succ_.capacity() * sizeof(SuccIndex) +
                  reducedSucc_.capacity() * sizeof(SuccIndex);
  return ms;
}

}  // namespace boosting::analysis
