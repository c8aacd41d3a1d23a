// Heap allocations made by a warm ample decision: zero. Pass 1 of every
// reduced expansion asks the POR policy for the ample set, which reads the
// row's enabled classes from the transition memo and looks the class row
// up among the memo's ample decisions; once both are known,
// neither may touch the heap (the pass runs once per explored node).
// Standalone (no test framework): the counting global operator new must
// see only the allocations of the decisions under test.
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <new>
#include <vector>

#include "analysis/bivalence.h"
#include "analysis/por.h"
#include "analysis/state_graph.h"
#include "analysis/transition_cache.h"
#include "processes/relay_consensus.h"

namespace {
std::size_t g_allocations = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

int main() {
  using namespace boosting;
  processes::RelaySystemSpec spec;
  spec.processCount = 4;
  spec.objectResilience = 1;
  spec.policy = services::DummyPolicy::PreferDummy;
  const auto sys = processes::buildRelayConsensusSystem(spec);
  const auto por = analysis::PorPolicy::forSystem(*sys, analysis::PorMode::Auto);
  if (por->trivial()) {
    std::fprintf(stderr, "POR unexpectedly off: %s\n",
                 por->disabledReason().c_str());
    return 1;
  }

  // A few hundred reachable states, breadth first.
  analysis::StateGraph g(*sys);
  std::deque<analysis::NodeId> frontier;
  for (int ones = 0; ones <= sys->processCount(); ++ones) {
    frontier.push_back(g.intern(analysis::canonicalInitialization(*sys, ones)));
  }
  while (!frontier.empty() && g.size() < 400) {
    const analysis::NodeId id = frontier.front();
    frontier.pop_front();
    const std::size_t before = g.size();
    (void)g.successors(id);
    for (std::size_t k = before; k < g.size(); ++k) {
      frontier.push_back(static_cast<analysis::NodeId>(k));
    }
  }

  analysis::TransitionCache& cache = *g.memo();
  std::uint64_t reduced = 0;
  const auto decideAll = [&] {
    for (std::size_t id = 0; id < g.size(); ++id) {
      const std::uint32_t* ids = g.row(static_cast<analysis::NodeId>(id));
      const analysis::TransitionCache::AmpleDecision& d =
          cache.decisionAt(por->ampleDecision(ids, cache));
      if (d.ample != d.enabled) {
        ++reduced;
      }
    }
  };
  decideAll();  // cold: fills the classes and the decisions
  const std::size_t before = g_allocations;
  decideAll();
  const std::size_t made = g_allocations - before;
  std::printf("warm ample decisions over %zu states (%llu proper): "
              "%zu allocations (max 0)\n",
              g.size(), static_cast<unsigned long long>(reduced / 2), made);
  if (reduced == 0) {
    std::fprintf(stderr, "no proper ample set: the check is vacuous\n");
    return 1;
  }
  return made == 0 ? 0 : 1;
}
