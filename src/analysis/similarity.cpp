#include "analysis/similarity.h"

#include "services/canonical_general.h"

namespace boosting::analysis {

using services::CanonicalGeneralService;
using services::ServiceState;

namespace {

bool buffersMatchExcept(const ServiceState& a, const ServiceState& b,
                        const std::vector<int>& endpoints, int except) {
  for (int i : endpoints) {
    if (i == except) continue;
    if (a.invBuf[i] != b.invBuf[i]) return false;
    if (a.respBuf[i] != b.respBuf[i]) return false;
  }
  return true;
}

}  // namespace

bool jSimilar(const ioa::System& sys, const ioa::SystemState& s0,
              const ioa::SystemState& s1, int j, SimilarityOptions opts) {
  // (1) Every process except P_j has the same state.
  for (int i = 0; i < sys.processCount(); ++i) {
    if (i == j) continue;
    const std::size_t slot = sys.slotForProcess(i);
    if (!s0.part(slot).equals(s1.part(slot))) return false;
  }
  // (2) Every service matches on val (and failed, vacuously empty in the
  // failure-free configurations this is applied to) and on all buffers
  // except j's.
  for (int id : sys.serviceIds()) {
    const ioa::ServiceMeta& meta = sys.serviceMeta(id);
    if (opts.exemptFailureAware && meta.failureAware) continue;
    const std::size_t slot = sys.slotForService(id);
    const ServiceState& a = CanonicalGeneralService::stateOf(s0.part(slot));
    const ServiceState& b = CanonicalGeneralService::stateOf(s1.part(slot));
    if (!(a.val == b.val) || a.failed != b.failed) return false;
    if (!buffersMatchExcept(a, b, meta.endpoints, j)) return false;
  }
  return true;
}

bool kSimilar(const ioa::System& sys, const ioa::SystemState& s0,
              const ioa::SystemState& s1, int serviceId,
              SimilarityOptions opts) {
  for (int i = 0; i < sys.processCount(); ++i) {
    const std::size_t slot = sys.slotForProcess(i);
    if (!s0.part(slot).equals(s1.part(slot))) return false;
  }
  for (int id : sys.serviceIds()) {
    if (id == serviceId) continue;
    const ioa::ServiceMeta& meta = sys.serviceMeta(id);
    if (opts.exemptFailureAware && meta.failureAware) continue;
    const std::size_t slot = sys.slotForService(id);
    if (!s0.part(slot).equals(s1.part(slot))) return false;
  }
  return true;
}

HookClassification classifyHookStates(const ioa::System& sys,
                                      const ioa::SystemState& s0,
                                      const ioa::SystemState& s1,
                                      const ioa::SystemState* s0p,
                                      SimilarityOptions opts) {
  HookClassification out;

  // Claim 2's negation made concrete: if the two tasks commute, then
  // e'(e(alpha)) and e(e'(alpha)) are the same configuration.
  if (s0p != nullptr && s0p->equals(s1)) {
    out.kind = HookClassification::Kind::Commute;
    out.narrative =
        "tasks commute: e'(e(alpha)) == e(e'(alpha)); impossible for "
        "opposite valences, so the valence certificate is inconsistent";
    return out;
  }

  for (int j = 0; j < sys.processCount(); ++j) {
    if (jSimilar(sys, s0, s1, j, opts)) {
      out.kind = HookClassification::Kind::ProcessSimilar;
      out.index = j;
      out.narrative = "e(alpha) and e(e'(alpha)) are j-similar for j=P" +
                      std::to_string(j) + " (Lemma 6 applies)";
      return out;
    }
  }
  for (int k : sys.serviceIds()) {
    if (kSimilar(sys, s0, s1, k, opts)) {
      out.kind = HookClassification::Kind::ServiceSimilar;
      out.index = k;
      out.narrative = "e(alpha) and e(e'(alpha)) are k-similar for k=S" +
                      std::to_string(k) + " (Lemma 7 applies)";
      return out;
    }
  }

  // Claim 5, case 1(c): a read/write pair on a register leaves e'(s0) and
  // s1 i-similar instead of s0 and s1.
  if (s0p != nullptr) {
    for (int j = 0; j < sys.processCount(); ++j) {
      if (jSimilar(sys, *s0p, s1, j, opts)) {
        out.kind = HookClassification::Kind::ProcessSimilar;
        out.index = j;
        out.viaEPrime = true;
        out.narrative =
            "e'(e(alpha)) and e(e'(alpha)) are j-similar for j=P" +
            std::to_string(j) +
            " (Lemma 6 applies to the 0-valent extension e'(alpha0))";
        return out;
      }
    }
    for (int k : sys.serviceIds()) {
      if (kSimilar(sys, *s0p, s1, k, opts)) {
        out.kind = HookClassification::Kind::ServiceSimilar;
        out.index = k;
        out.viaEPrime = true;
        out.narrative =
            "e'(e(alpha)) and e(e'(alpha)) are k-similar for k=S" +
            std::to_string(k) + " (Lemma 7 applies to e'(alpha0))";
        return out;
      }
    }
  }

  out.narrative = "no similarity relation found (outside Lemma 8's case "
                  "analysis; check the candidate's action structure)";
  return out;
}

HookClassification classifyHook(StateGraph& g, const Hook& hook,
                                SimilarityOptions opts) {
  // Node ids are injective on states (no quotient within one graph), so
  // the explicit-state analysis on the node states is exactly Lemma 8's.
  const std::optional<Edge> viaEPrime = g.successorVia(hook.alpha0, hook.ePrime);
  // state() references keep their address while the graph grows, so they
  // survive the interning successorVia may have triggered.
  const ioa::SystemState* s0p = viaEPrime ? &g.state(viaEPrime->to) : nullptr;
  return classifyHookStates(g.system(), g.state(hook.alpha0),
                            g.state(hook.alpha1), s0p, opts);
}

}  // namespace boosting::analysis
