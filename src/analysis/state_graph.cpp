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
        " tasks overflow the 16-bit task index of CompactEdge (at most "
        "65535 tasks are supported)");
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

StateGraph::InternResult StateGraph::internRow(const std::uint32_t* ids) {
  assertWriter();
  const RowTable::Probe p = rows_.find(ids);
  if (p.id != RowTable::kNone) {
    ++stats_.dedupHits;
    return {p.id, false};
  }
  succ_.emplace_back();
  reducedSucc_.emplace_back();
  parent_.emplace_back();
  ++stats_.statesDiscovered;
  return {rows_.insert(p, ids), true};
}

CompactEdge* StateGraph::reserveEdgeRun(std::uint32_t need,
                                        std::uint32_t* base) {
  if (edgeChunks_.empty() || kEdgeChunkCapacity - edgeUsed_ < need) {
    if (!edgeChunks_.empty()) {
      edgeSlackSlots_ += kEdgeChunkCapacity - edgeUsed_;
    }
    edgeChunks_.push_back(
        std::make_unique_for_overwrite<CompactEdge[]>(kEdgeChunkCapacity));
    edgeUsed_ = 0;
  }
  *base = static_cast<std::uint32_t>(
      ((edgeChunks_.size() - 1) << kEdgeChunkShift) | edgeUsed_);
  return edgeChunks_.back().get() + edgeUsed_;
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
  // Row chunks never relocate: `ids` stays valid across insertions.
  const std::uint32_t* ids = row(id);
  for (std::size_t ti = 0; ti < tasks.size(); ++ti) {
    const std::uint32_t ai = memo_->step(ids, ti, nextIds_.data());
    if (ai == TransitionCache::kDisabled) continue;
    const InternResult r = internSuccessor(nextIds_.data());
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
  // Pass 1: the ample decision, from the row's enabled classes. No
  // successor is built yet.
  const std::uint32_t* ids = row(id);
  std::uint64_t enabledMask = 0;
  const std::uint64_t ampleMask = por_->ampleMask(ids, *memo_, &enabledMask);
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
  for (std::uint64_t m = ampleMask; m != 0; m &= m - 1) {
    const std::size_t ti = static_cast<std::size_t>(std::countr_zero(m));
    const std::uint32_t ai = memo_->step(ids, ti, nextIds_.data());
    const InternResult r = internSuccessor(nextIds_.data());
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
    if (++hops > size()) {
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
    if (chain.size() > size()) {
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
  // Row chunks, plus the materialization side store: per entry its state
  // and an unordered_map node (key and next pointer), plus the buckets.
  ms.bytesStates =
      rows_.rowBytes() + materialized_.bucket_count() * sizeof(void*);
  for (const auto& [id, s] : materialized_) {
    ms.bytesStates += sizeof(id) + sizeof(void*) + s.shallowBytes();
  }
  ms.bytesEdges =
      static_cast<std::uint64_t>(edgeChunks_.size()) * kEdgeChunkCapacity *
          sizeof(CompactEdge) +
      memo_->actionBytes();
  ms.bytesIndex = rows_.indexBytes() +
                  parent_.capacity() * sizeof(Parent) +
                  succ_.capacity() * sizeof(SuccIndex) +
                  reducedSucc_.capacity() * sizeof(SuccIndex);
  return ms;
}

}  // namespace boosting::analysis
