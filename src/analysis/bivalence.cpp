#include "analysis/bivalence.h"

#include "obs/registry.h"
#include "obs/trace.h"

namespace boosting::analysis {

ioa::SystemState canonicalInitialization(const ioa::System& sys,
                                         int onesPrefix) {
  ioa::SystemState s = sys.initialState();
  for (int i = 0; i < sys.processCount(); ++i) {
    sys.injectInit(s, i, util::Value(i < onesPrefix ? 1 : 0));
  }
  return s;
}

BivalenceResult findBivalentInitialization(StateGraph& g, ValenceAnalyzer& va,
                                           const ExplorationPolicy& policy) {
  BivalenceResult result;
  const int n = g.system().processCount();
  obs::Registry* reg = policy.metrics;
  obs::ScopedTimer timer(reg, "phase.bivalence");

  for (int j = 0; j <= n; ++j) {
    InitializationOutcome out;
    out.onesPrefix = j;
    out.node = g.intern(canonicalInitialization(g.system(), j));
    va.explore(out.node);
    out.valence = va.valence(out.node);
    result.initializations.push_back(out);
    if (reg) {
      reg->add("bivalence.initializations", 1);
      reg->progress("bivalence.initializations",
                    result.initializations.size());
      if (auto* tw = reg->trace()) {
        tw->event("initialization",
                  {{"alpha", j},
                   {"node", static_cast<std::uint64_t>(out.node)},
                   {"valence", valenceName(out.valence)},
                   {"states", static_cast<std::uint64_t>(g.size())}});
      }
    }
    if (!result.bivalent && out.valence == Valence::Bivalent) {
      result.bivalent = out;
    }
  }
  if (!result.bivalent) {
    for (int j = 0; j + 1 <= n; ++j) {
      const auto& a = result.initializations[static_cast<std::size_t>(j)];
      const auto& b = result.initializations[static_cast<std::size_t>(j + 1)];
      const bool aUni = a.valence == Valence::Zero || a.valence == Valence::One;
      const bool bUni = b.valence == Valence::Zero || b.valence == Valence::One;
      if (aUni && bUni && a.valence != b.valence) {
        result.adjacentOppositePair = std::make_pair(a, b);
        break;
      }
    }
  }
  return result;
}

}  // namespace boosting::analysis
