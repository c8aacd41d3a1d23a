#include "analysis/hook.h"

#include <deque>
#include <stdexcept>
#include <unordered_map>

#include "analysis/dense.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace boosting::analysis {

namespace {

// BFS discovery tree over dense node ids: parent[x] = (previous node, task
// index into allTasks()); roots absent. Epoch-reset per BFS round so the
// stamp arrays are reused across the many Fig. 3 inner scans.
struct BfsTree {
  DenseNodeMap<std::pair<NodeId, std::uint16_t>> parent;

  void reset() { parent.reset(); }

  std::vector<std::pair<NodeId, ioa::TaskId>> pathFrom(
      const StateGraph& g, NodeId root, NodeId target) const {
    std::vector<std::pair<NodeId, ioa::TaskId>> rev;
    NodeId cur = target;
    while (cur != root) {
      const auto* p = parent.find(cur);
      if (!p) {
        throw std::logic_error("hook BFS: broken parent chain");
      }
      rev.emplace_back(p->first, g.taskAt(p->second));
      cur = p->first;
    }
    std::vector<std::pair<NodeId, ioa::TaskId>> out(rev.rbegin(), rev.rend());
    return out;  // (node, task applied at node), ending just before target
  }
};

Valence oppositeOf(Valence v) {
  return v == Valence::Zero ? Valence::One : Valence::Zero;
}

}  // namespace

HookSearchOutcome findHook(StateGraph& g, ValenceAnalyzer& va,
                           NodeId bivalentInit, std::size_t maxIterations,
                           const ExplorationPolicy& policy) {
  // Pre-expand the whole bivalent region in parallel (no-op for
  // threads=1): the Fig. 3 inner scans below then only ever touch cached
  // successors and cached valences, so the walk itself stays serial and
  // deterministic while the expensive expansion fans out across workers.
  expandRegionParallel(g, bivalentInit, policy,
                       [&va](NodeId id) { return va.explored(id); });
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

  // Scratch for the two inner BFS scans, epoch-reset per scan.
  DenseNodeSet visited(g.size());
  BfsTree tree;

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
        if (g.successorVia(alpha, tasks[idx])) {
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
    std::optional<NodeId> alphaPrimeNode;
    visited.reset();
    tree.reset();
    {
      std::deque<NodeId> frontier{alpha};
      visited.insert(alpha);
      while (!frontier.empty() && !alphaPrimeNode) {
        const NodeId x = frontier.front();
        frontier.pop_front();
        if (auto edgeE = g.successorVia(x, e)) {
          va.explore(edgeE->to);
          if (va.valence(edgeE->to) == Valence::Bivalent) {
            alphaPrimeNode = x;
            break;
          }
        }
        const EdgeList edges = g.successors(x);
        for (std::size_t k = 0; k < edges.size(); ++k) {
          const CompactEdge& edge = edges.data()[k];
          if (edge.task == eIdx) continue;
          if (visited.insert(edge.to)) {
            tree.parent.at(edge.to) = {x, edge.task};
            frontier.push_back(edge.to);
          }
        }
      }
    }

    if (alphaPrimeNode) {
      // Move to e(alpha') and continue with the next round-robin task.
      std::vector<ioa::TaskId> applied;
      for (const auto& [node, task] :
           tree.pathFrom(g, alpha, *alphaPrimeNode)) {
        (void)node;
        applied.push_back(task);
      }
      applied.push_back(e);
      appliedPerIteration.push_back(std::move(applied));
      alpha = g.successorVia(*alphaPrimeNode, e)->to;
      cursor = newCursor;
      continue;
    }

    // Terminal vertex reached: every e-free-reachable alpha' has univalent
    // e(alpha'). Extract the hook along a path toward the opposite decision
    // (proof of Lemma 5).
    const Edge eAtAlpha = *g.successorVia(alpha, e);
    va.explore(eAtAlpha.to);
    const Valence v0 = va.valence(eAtAlpha.to);
    if (v0 != Valence::Zero && v0 != Valence::One) {
      throw std::logic_error(
          "findHook: e(alpha) at the terminal vertex is not univalent");
    }
    const Valence target = oppositeOf(v0);

    // BFS over e-free edges for the first sigma* with e(sigma*) of the
    // opposite valence; guaranteed to exist because alpha is bivalent.
    std::optional<NodeId> sigmaStar;
    visited.reset();
    tree.reset();
    {
      std::deque<NodeId> frontier{alpha};
      visited.insert(alpha);
      while (!frontier.empty() && !sigmaStar) {
        const NodeId x = frontier.front();
        frontier.pop_front();
        if (auto edgeE = g.successorVia(x, e)) {
          va.explore(edgeE->to);
          if (va.valence(edgeE->to) == target) {
            sigmaStar = x;
            break;
          }
        }
        const EdgeList edges = g.successors(x);
        for (std::size_t k = 0; k < edges.size(); ++k) {
          const CompactEdge& edge = edges.data()[k];
          if (edge.task == eIdx) continue;
          if (visited.insert(edge.to)) {
            tree.parent.at(edge.to) = {x, edge.task};
            frontier.push_back(edge.to);
          }
        }
      }
    }
    if (!sigmaStar) {
      throw std::logic_error(
          "findHook: no opposite-valent e-successor found from a bivalent "
          "terminal vertex (contradicts Lemma 5)");
    }

    // Walk sigma_0 .. sigma_m and find the flip.
    std::vector<std::pair<NodeId, ioa::TaskId>> path =
        tree.pathFrom(g, alpha, *sigmaStar);
    std::vector<NodeId> sigmas{alpha};
    std::vector<ioa::TaskId> stepTasks;
    for (const auto& [node, task] : path) {
      stepTasks.push_back(task);
      sigmas.push_back(g.successorVia(node, task)->to);
    }
    for (std::size_t j = 0; j + 1 < sigmas.size(); ++j) {
      const Edge ej0 = *g.successorVia(sigmas[j], e);
      const Edge ej1 = *g.successorVia(sigmas[j + 1], e);
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
                               std::size_t maxHooks,
                               const ExplorationPolicy& policy) {
  expandRegionParallel(g, root, policy,
                       [&va](NodeId id) { return va.explored(id); });
  va.explore(root);
  HookEnumeration out;
  std::deque<NodeId> frontier{root};
  DenseNodeSet seen(g.size());
  seen.insert(root);
  while (!frontier.empty()) {
    const NodeId alpha = frontier.front();
    frontier.pop_front();
    ++out.nodesScanned;
    // The span view stays valid across the successorVia expansions below
    // (arena chunks never relocate).
    const EdgeList edges = g.successors(alpha);
    for (const EdgeView e : edges) {
      if (seen.insert(e.to)) frontier.push_back(e.to);
    }
    // This walk follows FULL successor lists (a hook needs every commuting
    // square, not just the ample subset), so under an active POR policy the
    // scanned nodes may lie outside any reduced region explored so far.
    va.explore(alpha);
    if (va.valence(alpha) != Valence::Bivalent) continue;
    ++out.bivalentNodes;
    for (const EdgeView eEdge : edges) {
      va.explore(eEdge.to);
      const Valence v0 = va.valence(eEdge.to);
      if (v0 != Valence::Zero && v0 != Valence::One) continue;
      const Valence target =
          v0 == Valence::Zero ? Valence::One : Valence::Zero;
      for (const EdgeView epEdge : edges) {
        if (epEdge.task == eEdge.task) continue;
        auto e1 = g.successorVia(epEdge.to, eEdge.task);
        if (!e1) continue;
        va.explore(e1->to);
        if (va.valence(e1->to) != target) continue;
        Hook hook;
        hook.alpha = alpha;
        hook.e = eEdge.task;
        hook.ePrime = epEdge.task;
        hook.alpha0 = eEdge.to;
        hook.alphaPrime = epEdge.to;
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
