#include "analysis/state_graph.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>

namespace boosting::analysis {

namespace {

// Open-addressing growth policy shared by both tables: grow at 70% load so
// linear probes stay short.
constexpr bool overloaded(std::size_t used, std::size_t cap) {
  return used * 10 >= cap * 7;
}

}  // namespace

void StateGraph::validateTaskCapacity(std::size_t taskCount,
                                      std::uint32_t chunkCapacity) {
  if (taskCount >= (std::size_t{1} << 16)) {
    throw std::invalid_argument(
        "StateGraph: " + std::to_string(taskCount) +
        " tasks overflow the 16-bit task index of CompactEdge (at most "
        "65535 tasks are supported)");
  }
  if (taskCount >= chunkCapacity) {
    throw std::invalid_argument(
        "StateGraph: edge chunk capacity " + std::to_string(chunkCapacity) +
        " cannot hold one full successor list for " +
        std::to_string(taskCount) +
        " tasks; raise SpillConfig::edgeChunkShift");
  }
}

std::uint32_t StateGraph::resolveEdgeChunkShift(const SpillConfig& spill) {
  if (spill.edgeChunkShift != 0) {
    if (spill.edgeChunkShift < 6 || spill.edgeChunkShift > 20) {
      throw std::invalid_argument(
          "StateGraph: SpillConfig::edgeChunkShift " +
          std::to_string(spill.edgeChunkShift) + " outside [6, 20]");
    }
    return spill.edgeChunkShift;
  }
  if (spill.memoryBudgetBytes == 0) return kDefaultEdgeChunkShift;
  // Budget-scaled: aim for ~16 chunks of LRU headroom inside the budget so
  // small bounded runs still seal (and therefore demote) whole chunks,
  // clamped to [8, default]. The shift moves arena positions only -- node
  // ids, intern indices and successor lists are unaffected.
  const std::uint64_t entries =
      spill.memoryBudgetBytes / (16 * sizeof(CompactEdge));
  std::uint32_t shift = 8;
  while (shift < kDefaultEdgeChunkShift &&
         (std::uint64_t{1} << (shift + 1)) <= entries) {
    ++shift;
  }
  return shift;
}

StateGraph::StateGraph(const ioa::System& sys,
                       std::shared_ptr<const SymmetryPolicy> symmetry,
                       std::shared_ptr<const PorPolicy> por,
                       const SpillConfig& spill,
                       std::shared_ptr<AnalysisMemo> memo)
    : sys_(sys), symmetry_(std::move(symmetry)), por_(std::move(por)),
      chunkShift_(resolveEdgeChunkShift(spill)),
      chunkCapacity_(1u << chunkShift_),
      edgeUsed_(chunkCapacity_),
      memo_(memo ? std::move(memo) : std::make_shared<AnalysisMemo>(sys)),
      transitionsBase_(memo_->transitions().stats()) {
  if (&memo_->system() != &sys_) {
    // The memos only make sense against the exact System object they were
    // built for (the TransitionCache snapshots its task list and keys on
    // the ids of its slot representatives).
    throw std::invalid_argument(
        "StateGraph: AnalysisMemo was built for a different System object");
  }
  const auto& tasks = sys_.allTasks();
  validateTaskCapacity(tasks.size(), chunkCapacity_);
  if (spill.memoryBudgetBytes != 0) {
    Pager::Config pc;
    pc.budgetBytes = spill.memoryBudgetBytes;
    pc.chunkBytes = std::size_t{chunkCapacity_} * sizeof(CompactEdge);
    pc.spillDir = spill.spillDir;
    pc.failDemoteAfter = spill.failDemoteAfter;
    pc.failEvictAfter = spill.failEvictAfter;
    pager_ = std::make_unique<Pager>(pc);
  }
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
  return internWithHash(s, s.hash()).id;
}

StateGraph::InternResult StateGraph::internWithHash(const ioa::SystemState& s,
                                                    std::size_t hash) {
  // Copying is a refcount bump per slot under the COW representation, so
  // the copy-then-move keeps one canonicalizing hot path.
  ioa::SystemState copy(s);
  return internWithHash(std::move(copy), hash);
}

StateGraph::InternResult StateGraph::internWithHash(ioa::SystemState&& s,
                                                    std::size_t hash) {
  if (symmetryActive()) {
    // Orbit reduction: intern the canonical representative instead. The
    // replacement is a fresh state, so `s` -- possibly a caller's reusable
    // successor buffer (see transition_cache.h) -- is left untouched.
    if (auto c = symmetry_->canonicalize(s)) {
      const std::size_t h = c->state.hash();
      return internPrecanonicalized(std::move(c->state), h);
    }
  }
  return internPrecanonicalized(std::move(s), hash);
}

std::size_t StateGraph::findIndexSlot(std::size_t hash) const {
  // Linear probe to the first empty slot or the (unique) slot already
  // holding this hash. No deletions, so probes never cross tombstones.
  const std::size_t mask = index_.size() - 1;
  std::size_t i = hash & mask;
  while (index_[i].head != kNoNode && index_[i].hash != hash) {
    i = (i + 1) & mask;
    // On a collision run the next probe target is predictable: pull the
    // following slot while the current one is compared.
    __builtin_prefetch(&index_[(i + 1) & mask]);
  }
  return i;
}

void StateGraph::growIndex(std::size_t newCap) {
  std::vector<IndexSlot> old = std::move(index_);
  index_.assign(newCap, IndexSlot{});
  const std::size_t mask = newCap - 1;
  for (const IndexSlot& slot : old) {
    if (slot.head == kNoNode) continue;
    // Each hash occupies exactly one slot, so reinsertion only needs the
    // first empty position of its probe sequence.
    std::size_t i = slot.hash & mask;
    while (index_[i].head != kNoNode) i = (i + 1) & mask;
    index_[i] = slot;
  }
}

StateGraph::InternResult StateGraph::internPrecanonicalized(
    ioa::SystemState&& s, std::size_t hash) {
  assertWriter();
  memo_->slotCanon().canonicalize(s);
  if (index_.empty()) growIndex(1024);
  std::size_t slot = findIndexSlot(hash);
  const bool occupied = index_[slot].head != kNoNode;
  if (occupied) {
    for (NodeId id = index_[slot].head; id != kNoNode;
         id = nextSameHash_[id]) {
      if (states_[id].equals(s)) {
        ++stats_.dedupHits;
        return {id, false};
      }
    }
  }
  const NodeId id = static_cast<NodeId>(states_.size());
  states_.push_back(std::move(s));
  succ_.emplace_back();
  reducedSucc_.emplace_back();
  parent_.emplace_back();
  if (occupied) {
    // Same-hash sibling: push onto the intrusive chain; the table slot
    // stays put.
    nextSameHash_.push_back(index_[slot].head);
    index_[slot].head = id;
  } else {
    nextSameHash_.push_back(kNoNode);
    index_[slot] = IndexSlot{hash, id};
    if (overloaded(++indexUsed_, index_.size())) {
      growIndex(index_.size() * 2);
    }
  }
  ++stats_.statesDiscovered;
  return {id, true};
}

CompactEdge* StateGraph::reserveEdgeRun(std::uint32_t need,
                                        std::uint32_t* base) {
  if (edgeChunks_.empty() || chunkCapacity_ - edgeUsed_ < need) {
    if (!edgeChunks_.empty()) {
      edgeSlackSlots_ += chunkCapacity_ - edgeUsed_;
      if (pager_) {
        // Seal point: once the arena moves on, the tail chunk is immutable
        // (committed runs never mutate; an abandoned reserved tail is
        // never read), so it demotes to the spill file now. demote() is
        // all-or-nothing and we throw BEFORE the new chunk or any edge of
        // the current expansion is committed, so a demote failure leaves
        // the graph exactly as the last commit did (checkConsistent holds).
        const std::uint32_t coldId =
            pager_->demote(edgeChunks_.back().data);
        (void)coldId;
        assert(coldId + 1 == edgeChunks_.size() &&
               "cold ids must track chunk positions (demote-in-order)");
      }
    }
    EdgeChunk chunk;
    if (pager_) {
      chunk.data = static_cast<CompactEdge*>(pager_->allocChunk());
    } else {
      chunk.heap = std::make_unique<CompactEdge[]>(chunkCapacity_);
      chunk.data = chunk.heap.get();
    }
    edgeChunks_.push_back(std::move(chunk));
    edgeUsed_ = 0;
  }
  *base = static_cast<std::uint32_t>(
      ((edgeChunks_.size() - 1) << chunkShift_) | edgeUsed_);
  return edgeChunks_.back().data + edgeUsed_;
}

void StateGraph::touchChunkForRead(std::uint32_t chunk) const {
  // Chunks demote strictly in order, so every chunk but the live tail is
  // cold and its cold id equals its position.
  if (static_cast<std::size_t>(chunk) + 1 < edgeChunks_.size()) {
    pager_->touchCold(chunk);
  }
}

EdgeList StateGraph::successors(NodeId id) {
  if (succ_[id].begin != kUnexpanded) return listAt(succ_[id]);
  assertWriter();
  const std::vector<ioa::TaskId>& tasks = sys_.allTasks();
  // Reserve the worst case (every task applicable) up front: interning
  // below never touches the arena, so the run stays contiguous and the
  // unused tail is handed to the next expansion.
  std::uint32_t base = 0;
  CompactEdge* run = reserveEdgeRun(static_cast<std::uint32_t>(tasks.size()),
                                    &base);
  std::uint32_t count = 0;
  // states_ is a deque: references remain valid across intern() insertions.
  const ioa::SystemState& s = states_[id];
  ioa::SystemState next;  // reusable successor buffer (see step())
  for (std::size_t ti = 0; ti < tasks.size(); ++ti) {
    TransitionCache::Transition* t = memo_->transitions().step(s, ti, &next);
    if (!t) continue;
    const std::uint32_t ai = internAction(*t);
    const std::size_t h = next.hash();
    const InternResult r = internWithHash(std::move(next), h);
    if (r.inserted) {
      // Newly discovered node: record its first-discovery parent so that
      // witness paths can be reconstructed. Externally interned roots keep
      // kNoNode and terminate pathTo().
      parent_[r.id] = Parent{id, ai, static_cast<std::uint16_t>(ti)};
    }
    run[count++] = CompactEdge{ai, r.id, static_cast<std::uint16_t>(ti)};
  }
  edgeUsed_ += count;
  succ_[id] = SuccIndex{base, count};
  stats_.edgesDiscovered += count;
  ++stats_.expansions;
  return EdgeList(this, count ? run : nullptr, count);
}

std::optional<EdgeList> StateGraph::cachedSuccessors(NodeId id) const {
  if (static_cast<std::size_t>(id) >= succ_.size() ||
      succ_[id].begin == kUnexpanded) {
    return std::nullopt;
  }
  return listAt(succ_[id]);
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
  const std::size_t taskCount = sys_.allTasks().size();
  // Pass 1: the per-task enabled actions (pointers into the transition
  // memo, stable for the cache's lifetime). No successor is built yet.
  const ioa::SystemState& s = states_[id];
  porActions_.resize(taskCount);
  for (std::size_t ti = 0; ti < taskCount; ++ti) {
    porActions_[ti] = memo_->transitions().enabledAction(s, ti);
  }
  std::uint64_t enabledMask = 0;
  const std::uint64_t ampleMask =
      por_->ampleMask(porActions_, &enabledMask, &porScratch_);
  if (ampleMask == enabledMask) {
    // No proper ample set: the full list IS the reduced list.
    const EdgeList full = successors(id);
    reducedSucc_[id].begin = kAliasFull;
    return full;
  }
  // Pass 2: intern the ample targets, in task order -- exactly the prefix
  // of work successors() would do.
  std::uint32_t base = 0;
  CompactEdge* run = reserveEdgeRun(
      static_cast<std::uint32_t>(std::popcount(ampleMask)), &base);
  std::uint32_t count = 0;
  bool open = false;  // C3: some ample target not yet reduced-expanded
  ioa::SystemState next;  // reusable successor buffer (see step())
  for (std::uint64_t m = ampleMask; m != 0; m &= m - 1) {
    const std::size_t ti = static_cast<std::size_t>(std::countr_zero(m));
    const std::uint32_t ai =
        internAction(*memo_->transitions().step(s, ti, &next));
    const std::size_t h = next.hash();
    const InternResult r = internWithHash(std::move(next), h);
    if (r.inserted) {
      parent_[r.id] = Parent{id, ai, static_cast<std::uint16_t>(ti)};
    }
    if (r.id != id && reducedSucc_[r.id].begin == kUnexpanded) open = true;
    run[count++] = CompactEdge{ai, r.id, static_cast<std::uint16_t>(ti)};
  }
  if (!open) {
    // Cycle proviso: every ample move stays inside already reduced-expanded
    // territory (or loops on the node itself), so taking only the ample
    // subset could postpone the skipped tasks forever. Expand fully; the
    // reserved run is uncommitted and successors() reuses the space.
    por_->noteProvisoHit();
    ++stats_.provisoFallbacks;
    const EdgeList full = successors(id);
    reducedSucc_[id].begin = kAliasFull;
    return full;
  }
  edgeUsed_ += count;
  reducedSucc_[id] = SuccIndex{base, count};
  stats_.reducedEdges += count;
  ++stats_.reducedExpansions;
  por_->noteReduced(static_cast<std::uint64_t>(std::popcount(enabledMask)),
                    count);
  return EdgeList(this, count ? run : nullptr, count);
}

std::optional<EdgeList> StateGraph::cachedReducedSuccessors(NodeId id) const {
  if (static_cast<std::size_t>(id) >= reducedSucc_.size() ||
      reducedSucc_[id].begin == kUnexpanded) {
    return std::nullopt;
  }
  if (reducedSucc_[id].begin == kAliasFull) {
    // The alias is only set once the full list is cached.
    return listAt(succ_[id]);
  }
  return listAt(reducedSucc_[id]);
}

std::optional<Edge> StateGraph::successorVia(NodeId id, const ioa::TaskId& e) {
  const EdgeList edges = successors(id);
  for (std::size_t k = 0; k < edges.size(); ++k) {
    const CompactEdge& ce = edges.data()[k];
    if (taskAt(ce.task) == e) {
      return Edge{taskAt(ce.task), actionAt(ce.action), ce.to};
    }
  }
  return std::nullopt;
}

bool StateGraph::checkConsistent(std::string* why) const {
  auto fail = [&](const char* msg) {
    if (why) *why = msg;
    return false;
  };
  const std::size_t n = states_.size();
  if (succ_.size() != n) return fail("succ_ size != states_ size");
  if (reducedSucc_.size() != n) return fail("reducedSucc_ size != states_ size");
  if (parent_.size() != n) return fail("parent_ size != states_ size");
  if (nextSameHash_.size() != n) return fail("nextSameHash_ size mismatch");
  if (stats_.statesDiscovered != n) {
    return fail("statesDiscovered != size()");
  }
  // The hash chains hanging off the occupied index slots must partition
  // the node set: every node reachable from exactly one slot, no cycles,
  // total length == size().
  std::vector<char> seen(n, 0);
  std::size_t chained = 0;
  std::size_t occupied = 0;
  for (const IndexSlot& slot : index_) {
    if (slot.head == kNoNode) continue;
    ++occupied;
    for (NodeId id = slot.head; id != kNoNode; id = nextSameHash_[id]) {
      if (static_cast<std::size_t>(id) >= n) {
        return fail("hash chain references out-of-range node");
      }
      if (seen[id]) return fail("node on two hash chains (or chain cycle)");
      seen[id] = 1;
      ++chained;
    }
  }
  if (chained != n) return fail("hash chains do not cover all nodes");
  if (occupied != indexUsed_) return fail("indexUsed_ != occupied slots");
  // On a shared memo the pool may hold actions no edge of THIS graph
  // references; the bound check below (index < poolSize) is still exact.
  const std::size_t poolSize = memo_->actionPoolSize();
  std::uint64_t edges = 0;
  std::uint64_t expanded = 0;
  for (std::size_t id = 0; id < n; ++id) {
    if (succ_[id].begin == kUnexpanded) continue;
    ++expanded;
    for (std::uint32_t k = 0; k < succ_[id].count; ++k) {
      const CompactEdge& e = *edgeAt(succ_[id].begin + k);
      if (static_cast<std::size_t>(e.to) >= n) {
        return fail("edge targets out-of-range node");
      }
      if (e.action >= poolSize) {
        return fail("edge references out-of-range pooled action");
      }
      if (e.task >= sys_.allTasks().size()) {
        return fail("edge references out-of-range task index");
      }
      ++edges;
    }
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
    for (std::uint32_t k = 0; k < reducedSucc_[id].count; ++k) {
      const CompactEdge& e = *edgeAt(reducedSucc_[id].begin + k);
      if (static_cast<std::size_t>(e.to) >= n) {
        return fail("reduced edge targets out-of-range node");
      }
      if (e.action >= poolSize) {
        return fail("reduced edge references out-of-range pooled action");
      }
      if (e.task >= sys_.allTasks().size()) {
        return fail("reduced edge references out-of-range task index");
      }
      ++redEdges;
    }
  }
  if (redEdges != stats_.reducedEdges) {
    return fail("reducedEdges != sum of proper reduced lists");
  }
  if (redExpanded != stats_.reducedExpansions) {
    return fail("reducedExpansions != number of proper reduced lists");
  }
  for (std::size_t id = 0; id < n; ++id) {
    if (parent_[id].from == kNoNode) continue;
    if (static_cast<std::size_t>(parent_[id].from) >= n) {
      return fail("parent references out-of-range node");
    }
    if (parent_[id].action >= poolSize) {
      return fail("parent references out-of-range pooled action");
    }
  }
  return true;
}

NodeId StateGraph::rootOf(NodeId id) const {
  NodeId cur = id;
  std::size_t hops = 0;
  while (parent_[cur].from != kNoNode) {
    cur = parent_[cur].from;
    if (++hops > states_.size()) {
      throw std::logic_error("StateGraph::rootOf: parent cycle detected");
    }
  }
  return cur;
}

std::vector<Edge> StateGraph::pathTo(NodeId id) const {
  // Collect the parent chain first (node ids only), then materialize
  // owning Edge values front to back from the pools.
  std::vector<NodeId> chain;
  NodeId cur = id;
  while (parent_[cur].from != kNoNode) {
    chain.push_back(cur);
    cur = parent_[cur].from;
    if (chain.size() > states_.size()) {
      throw std::logic_error("StateGraph::pathTo: parent cycle detected");
    }
  }
  std::vector<Edge> out;
  out.reserve(chain.size());
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    const Parent& p = parent_[*it];
    out.push_back(Edge{taskAt(p.task), actionAt(p.action), *it});
  }
  return out;
}

StateGraph::MemoryStats StateGraph::memoryStats() const {
  MemoryStats ms;
  for (const ioa::SystemState& s : states_) ms.bytesStates += s.shallowBytes();
  ms.bytesEdges =
      static_cast<std::uint64_t>(edgeChunks_.size()) * chunkCapacity_ *
          sizeof(CompactEdge) +
      memo_->actionBytes();
  ms.bytesIndex = index_.capacity() * sizeof(IndexSlot) +
                  nextSameHash_.capacity() * sizeof(NodeId) +
                  parent_.capacity() * sizeof(Parent) +
                  succ_.capacity() * sizeof(SuccIndex) +
                  reducedSucc_.capacity() * sizeof(SuccIndex);
  return ms;
}

}  // namespace boosting::analysis
