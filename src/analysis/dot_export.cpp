#include "analysis/dot_export.h"

#include <deque>
#include <set>

#include "analysis/dense.h"

namespace boosting::analysis {

namespace {

const char* fillFor(Valence v) {
  switch (v) {
    case Valence::Bivalent: return "khaki";
    case Valence::Zero: return "lightblue";
    case Valence::One: return "salmon";
    case Valence::Null: return "gray85";
  }
  return "white";
}

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out;
}

}  // namespace

std::string exportDot(StateGraph& g, ValenceAnalyzer& va, NodeId root,
                      const DotOptions& options) {
  // The three hook edges, matched on task as well as endpoints: under the
  // symmetry quotient several tasks can lead to the same node.
  const std::optional<Hook>& hook = options.highlightHook;
  const auto inHook = [&hook](NodeId from, const EdgeView& e) {
    return hook && ((from == hook->alpha && e.task == hook->e &&
                     e.to == hook->alpha0) ||
                    (from == hook->alpha && e.task == hook->ePrime &&
                     e.to == hook->alphaPrime) ||
                    (from == hook->alphaPrime && e.task == hook->e &&
                     e.to == hook->alpha1));
  };

  std::string out = "digraph GC {\n  rankdir=TB;\n  node [style=filled];\n";
  std::deque<NodeId> frontier{root};
  DenseNodeSet seen(g.size());
  seen.insert(root);
  std::vector<NodeId> nodes;
  while (!frontier.empty() && nodes.size() < options.maxNodes) {
    const NodeId x = frontier.front();
    frontier.pop_front();
    nodes.push_back(x);
    for (const EdgeView e : g.successors(x)) {
      if (seen.insert(e.to)) frontier.push_back(e.to);
    }
  }
  std::set<NodeId> included(nodes.begin(), nodes.end());

  for (NodeId x : nodes) {
    // The walk follows the full edge tier; under POR the valence analysis
    // explores only the reduced tier, so a node the walk reaches may not
    // have been explored yet.
    va.explore(x);
    std::string label = "n" + std::to_string(x) + "\\n" +
                        valenceName(va.valence(x));
    if (options.includeStateLabels) {
      label += "\\n" + escape(g.state(x).str());
    }
    out += "  n" + std::to_string(x) + " [label=\"" + label +
           "\", fillcolor=" + fillFor(va.valence(x)) + "];\n";
  }
  for (NodeId x : nodes) {
    for (const EdgeView e : g.successors(x)) {
      if (included.count(e.to) == 0) continue;
      out += "  n" + std::to_string(x) + " -> n" + std::to_string(e.to) +
             " [label=\"" + escape(e.task.str()) + "\"" +
             (inHook(x, e) ? ", color=red, penwidth=2.5" : "") + "];\n";
    }
  }
  out += "}\n";
  return out;
}

}  // namespace boosting::analysis
