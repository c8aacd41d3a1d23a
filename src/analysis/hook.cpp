#include "analysis/hook.h"

#include <algorithm>
#include <deque>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "obs/registry.h"
#include "obs/trace.h"
#include "util/hashing.h"
#include "util/id_index.h"

namespace boosting::analysis {

namespace {

// The visited set and discovery tree of one Fig. 3 scan: the visits
// (node, previous node, task index into allTasks()) in visit order, the
// root with no previous node, behind an index keyed by node. The index is
// sized to the nodes the scan visits, not to the graph: the scans run
// while the graph is at its largest and reach a small corner of it.
// reset() keeps the capacity for the next scan.
class ScanTree {
 public:
  // Forget the previous scan; `root` is the only visited node.
  void reset(NodeId root) {
    visits_.clear();
    index_.clear();
    visit(root, kNoNode, 0);
  }

  // Marks `x` visited, reached from `from` by task #task; false (and no
  // change) when `x` was already visited.
  bool visit(NodeId x, NodeId from, std::uint16_t task) {
    const util::IdIndex::Probe p = find(x);
    if (p.id != util::IdIndex::kNone) return false;
    index_.insert(p, static_cast<std::uint32_t>(visits_.size()));
    visits_.push_back(Visit{x, from, task});
    return true;
  }

  // (node, task applied at node) from the root to `target`, ending just
  // before target.
  std::vector<std::pair<NodeId, ioa::TaskId>> pathTo(const StateGraph& g,
                                                     NodeId target) const {
    std::vector<std::pair<NodeId, ioa::TaskId>> rev;
    for (NodeId x = target;;) {
      const std::uint32_t id = find(x).id;
      if (id == util::IdIndex::kNone) {
        throw std::logic_error("hook BFS: broken parent chain");
      }
      const Visit& v = visits_[id];
      if (v.from == kNoNode) break;  // the root
      rev.emplace_back(v.from, g.taskAt(v.task));
      x = v.from;
    }
    return {rev.rbegin(), rev.rend()};
  }

 private:
  struct Visit {
    NodeId node = kNoNode;
    NodeId from = kNoNode;
    std::uint16_t task = 0;
  };

  util::IdIndex::Probe find(NodeId x) const {
    return index_.find(static_cast<std::uint32_t>(util::mix64(x)),
                       [&](std::uint32_t id) { return visits_[id].node == x; });
  }

  std::vector<Visit> visits_;
  util::IdIndex index_{256};
};

// Fig. 3's inner search: BFS over the e-free edges from `alpha` (e is
// task #eIdx) for the first node x whose e-successor has valence `want`;
// kNoNode when there is none. `tree` holds the scan's discovery tree.
NodeId scanEFree(StateGraph& g, ValenceAnalyzer& va, NodeId alpha,
                 std::uint16_t eIdx, Valence want, ScanTree& tree) {
  tree.reset(alpha);
  std::deque<NodeId> frontier{alpha};
  while (!frontier.empty()) {
    const NodeId x = frontier.front();
    frontier.pop_front();
    if (auto edgeE = g.successorVia(x, eIdx)) {
      va.explore(edgeE->to);
      if (va.valence(edgeE->to) == want) return x;
    }
    const EdgeList edges = g.successors(x);
    for (auto it = edges.begin(); it != edges.end(); ++it) {
      if (it.taskIndex() == eIdx) continue;
      if (tree.visit(it.to(), x, static_cast<std::uint16_t>(it.taskIndex()))) {
        frontier.push_back(it.to());
      }
    }
  }
  return kNoNode;
}

Valence oppositeOf(Valence v) {
  return v == Valence::Zero ? Valence::One : Valence::Zero;
}

}  // namespace

HookSearchOutcome findHook(StateGraph& g, ValenceAnalyzer& va,
                           NodeId bivalentInit, std::size_t maxIterations,
                           const ExplorationPolicy& policy) {
  va.explore(bivalentInit);
  if (va.valence(bivalentInit) != Valence::Bivalent) {
    throw std::logic_error("findHook: starting vertex is not bivalent");
  }

  HookSearchOutcome outcome;
  obs::Registry* reg = policy.metrics;
  obs::ScopedTimer timer(reg, "phase.hook");
  const auto& tasks = g.system().allTasks();
  NodeId alpha = bivalentInit;
  std::size_t cursor = 0;

  // (node, cursor) -> iteration index, for fair-cycle certification, keyed
  // as node * |tasks| + cursor. One entry per iteration: the walk takes a
  // handful of steps, so a dense array over states x tasks would cost
  // orders of magnitude more than the history it records.
  const std::size_t nTasks = tasks.size();
  std::unordered_map<std::size_t, std::size_t> seen;
  std::vector<std::vector<ioa::TaskId>> appliedPerIteration;

  // Scratch for the two inner BFS scans, reset per scan.
  ScanTree tree;

  for (std::size_t iter = 0; iter < maxIterations; ++iter) {
    outcome.iterations = iter;
    if (reg) {
      reg->add("hook.iterations", 1);
      reg->progress("hook.iterations", iter + 1);
      if (auto* tw = reg->trace()) {
        tw->event("hook.iteration",
                  {{"iter", static_cast<std::uint64_t>(iter)},
                   {"alpha", static_cast<std::uint64_t>(alpha)},
                   {"states", static_cast<std::uint64_t>(g.size())}});
      }
    }

    const std::size_t key = static_cast<std::size_t>(alpha) * nTasks + cursor;
    if (const auto it = seen.find(key); it != seen.end()) {
      // Deterministic revisit: one period of an infinite fair failure-free
      // execution through bivalent configurations (the paper's infinite-pi
      // case, Lemma 5).
      outcome.fairCycle = true;
      outcome.cycleStart = alpha;
      for (std::size_t k = it->second; k < appliedPerIteration.size(); ++k) {
        for (const ioa::TaskId& t : appliedPerIteration[k]) {
          outcome.cycleTasks.push_back(t);
        }
      }
      outcome.statesTouched = g.size();
      if (reg) {
        reg->add("hook.fair_cycles", 1);
        if (auto* tw = reg->trace()) {
          tw->event("hook.fair_cycle",
                    {{"cycle_start", static_cast<std::uint64_t>(alpha)},
                     {"cycle_tasks",
                      static_cast<std::uint64_t>(outcome.cycleTasks.size())}});
        }
      }
      return outcome;
    }
    seen.emplace(key, appliedPerIteration.size());

    // Next applicable task in round-robin order (process tasks are always
    // applicable, so this terminates).
    ioa::TaskId e;
    std::uint16_t eIdx = 0;
    std::size_t newCursor = cursor;
    {
      bool found = false;
      for (std::size_t k = 0; k < tasks.size(); ++k) {
        const std::size_t idx = (cursor + k) % tasks.size();
        if (g.successorVia(alpha, idx)) {
          e = tasks[idx];
          eIdx = static_cast<std::uint16_t>(idx);
          newCursor = (idx + 1) % tasks.size();
          found = true;
          break;
        }
      }
      if (!found) {
        throw std::logic_error("findHook: no applicable task (violates the "
                               "always-enabled process-task assumption)");
      }
    }

    // Search the e-free-reachable descendants of alpha for alpha' with
    // e(alpha') bivalent (Fig. 3's inner search).
    const NodeId alphaPrimeNode =
        scanEFree(g, va, alpha, eIdx, Valence::Bivalent, tree);

    if (alphaPrimeNode != kNoNode) {
      // Move to e(alpha') and continue with the next round-robin task.
      std::vector<ioa::TaskId> applied;
      for (const auto& [node, task] : tree.pathTo(g, alphaPrimeNode)) {
        (void)node;
        applied.push_back(task);
      }
      applied.push_back(e);
      appliedPerIteration.push_back(std::move(applied));
      alpha = g.successorVia(alphaPrimeNode, eIdx)->to;
      cursor = newCursor;
      continue;
    }

    // Terminal vertex reached: every e-free-reachable alpha' has univalent
    // e(alpha'). Extract the hook along a path toward the opposite decision
    // (proof of Lemma 5).
    const Edge eAtAlpha = *g.successorVia(alpha, eIdx);
    va.explore(eAtAlpha.to);
    const Valence v0 = va.valence(eAtAlpha.to);
    if (v0 != Valence::Zero && v0 != Valence::One) {
      throw std::logic_error(
          "findHook: e(alpha) at the terminal vertex is not univalent");
    }
    const Valence target = oppositeOf(v0);

    // BFS over e-free edges for the first sigma* with e(sigma*) of the
    // opposite valence; guaranteed to exist because alpha is bivalent.
    const NodeId sigmaStar = scanEFree(g, va, alpha, eIdx, target, tree);
    if (sigmaStar == kNoNode) {
      throw std::logic_error(
          "findHook: no opposite-valent e-successor found from a bivalent "
          "terminal vertex (contradicts Lemma 5)");
    }

    // Walk sigma_0 .. sigma_m and find the flip.
    std::vector<std::pair<NodeId, ioa::TaskId>> path =
        tree.pathTo(g, sigmaStar);
    std::vector<NodeId> sigmas{alpha};
    std::vector<ioa::TaskId> stepTasks;
    for (const auto& [node, task] : path) {
      stepTasks.push_back(task);
      sigmas.push_back(g.successorVia(node, task)->to);
    }
    for (std::size_t j = 0; j + 1 < sigmas.size(); ++j) {
      const Edge ej0 = *g.successorVia(sigmas[j], eIdx);
      const Edge ej1 = *g.successorVia(sigmas[j + 1], eIdx);
      va.explore(ej0.to);
      va.explore(ej1.to);
      if (va.valence(ej0.to) == v0 && va.valence(ej1.to) == target) {
        Hook hook;
        hook.alpha = sigmas[j];
        hook.e = e;
        hook.ePrime = stepTasks[j];
        hook.alpha0 = ej0.to;
        hook.alphaPrime = sigmas[j + 1];
        hook.alpha1 = ej1.to;
        hook.alpha0Valence = v0;
        hook.alpha1Valence = target;
        outcome.hook = hook;
        outcome.statesTouched = g.size();
        if (reg) {
          reg->add("hook.found", 1);
          if (auto* tw = reg->trace()) {
            tw->event("hook.found",
                      {{"alpha", static_cast<std::uint64_t>(hook.alpha)},
                       {"alpha0", static_cast<std::uint64_t>(hook.alpha0)},
                       {"alpha1", static_cast<std::uint64_t>(hook.alpha1)}});
          }
        }
        return outcome;
      }
    }
    throw std::logic_error(
        "findHook: valence flip not found along the sigma path");
  }

  outcome.statesTouched = g.size();
  return outcome;  // iteration budget exhausted; neither hook nor cycle
}

bool isGenuineHook(StateGraph& g, ValenceAnalyzer& va, const Hook& hook) {
  va.explore(hook.alpha);
  if (va.valence(hook.alpha) != Valence::Bivalent) return false;
  if (hook.e == hook.ePrime) return false;
  auto e0 = g.successorVia(hook.alpha, hook.e);
  auto ep = g.successorVia(hook.alpha, hook.ePrime);
  if (!e0 || !ep || e0->to != hook.alpha0 || ep->to != hook.alphaPrime) {
    return false;
  }
  auto e1 = g.successorVia(hook.alphaPrime, hook.e);
  if (!e1 || e1->to != hook.alpha1) return false;
  // The hook corners come from full-tier edges, which under an active POR
  // policy may leave the reduced region explore() walked; explore from
  // them explicitly before asking for a valence.
  va.explore(hook.alpha0);
  va.explore(hook.alpha1);
  const Valence v0 = va.valence(hook.alpha0);
  const Valence v1 = va.valence(hook.alpha1);
  const bool univalent0 = v0 == Valence::Zero || v0 == Valence::One;
  return univalent0 && v0 == hook.alpha0Valence && v1 == hook.alpha1Valence &&
         v1 == (v0 == Valence::Zero ? Valence::One : Valence::Zero);
}

HookEnumeration enumerateHooks(StateGraph& g, ValenceAnalyzer& va, NodeId root,
                               std::size_t maxHooks) {
  va.explore(root);
  HookEnumeration out;
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
  while (!frontier.empty()) {
    const NodeId alpha = frontier.front();
    frontier.pop_front();
    ++out.nodesScanned;
    // The span view stays valid across the successorVia expansions below
    // (arena chunks never relocate).
    const EdgeList edges = g.successors(alpha);
    for (const NodeId to : edges.targets()) {
      if (firstVisit(to)) frontier.push_back(to);
    }
    // This walk follows FULL successor lists (a hook needs every commuting
    // square, not just the ample subset), so under an active POR policy the
    // scanned nodes may lie outside any reduced region explored so far.
    va.explore(alpha);
    if (va.valence(alpha) != Valence::Bivalent) continue;
    ++out.bivalentNodes;
    for (auto eEdge = edges.begin(); eEdge != edges.end(); ++eEdge) {
      va.explore(eEdge.to());
      const Valence v0 = va.valence(eEdge.to());
      if (v0 != Valence::Zero && v0 != Valence::One) continue;
      const Valence target =
          v0 == Valence::Zero ? Valence::One : Valence::Zero;
      for (auto epEdge = edges.begin(); epEdge != edges.end(); ++epEdge) {
        if (epEdge.taskIndex() == eEdge.taskIndex()) continue;
        auto e1 = g.successorVia(epEdge.to(), eEdge.taskIndex());
        if (!e1) continue;
        va.explore(e1->to);
        if (va.valence(e1->to) != target) continue;
        Hook hook;
        hook.alpha = alpha;
        hook.e = (*eEdge).task;
        hook.ePrime = (*epEdge).task;
        hook.alpha0 = eEdge.to();
        hook.alphaPrime = epEdge.to();
        hook.alpha1 = e1->to;
        hook.alpha0Valence = v0;
        hook.alpha1Valence = target;
        out.hooks.push_back(hook);
        if (out.hooks.size() >= maxHooks) return out;
      }
    }
  }
  return out;
}

}  // namespace boosting::analysis
