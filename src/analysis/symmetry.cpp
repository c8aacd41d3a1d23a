#include "analysis/symmetry.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace boosting::analysis {

namespace {

bool endpointsAreAllProcesses(const std::vector<int>& endpoints, int n) {
  if (static_cast<int>(endpoints.size()) != n) return false;
  for (int i = 0; i < n; ++i) {
    if (endpoints[static_cast<std::size_t>(i)] != i) return false;
  }
  return true;
}

}  // namespace

std::vector<int> SymmetryPolicy::identityPerm(int n) {
  std::vector<int> p(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) p[static_cast<std::size_t>(i)] = i;
  return p;
}

bool SymmetryPolicy::isIdentity(const std::vector<int>& p) {
  for (std::size_t i = 0; i < p.size(); ++i) {
    if (p[i] != static_cast<int>(i)) return false;
  }
  return true;
}

std::vector<int> SymmetryPolicy::composePerm(const std::vector<int>& outer,
                                             const std::vector<int>& inner) {
  assert(outer.size() == inner.size());
  std::vector<int> out(inner.size());
  for (std::size_t i = 0; i < inner.size(); ++i) {
    out[i] = outer[static_cast<std::size_t>(inner[i])];
  }
  return out;
}

std::vector<int> SymmetryPolicy::invertPerm(const std::vector<int>& p) {
  std::vector<int> out(p.size());
  for (std::size_t i = 0; i < p.size(); ++i) {
    out[static_cast<std::size_t>(p[i])] = static_cast<int>(i);
  }
  return out;
}

std::shared_ptr<const SymmetryPolicy> SymmetryPolicy::forSystem(
    const ioa::System& sys, SymmetryMode mode) {
  std::shared_ptr<SymmetryPolicy> pol(new SymmetryPolicy());
  pol->sys_ = &sys;
  pol->n_ = sys.processCount();
  const auto disabled = [&pol](std::string why) {
    pol->trivial_ = true;
    pol->disabledReason_ = std::move(why);
    return pol;
  };

  if (mode == SymmetryMode::Off) return disabled("disabled (--symmetry off)");
  if (mode == SymmetryMode::Auto) {
    return disabled(
        "off by default until a gated benchmark workload measures the "
        "quotient; --symmetry on enables it");
  }
  if (!sys.processSymmetric()) {
    return disabled("candidate declares no process symmetry");
  }
  if (pol->n_ < 2) return disabled("fewer than two processes: trivial group");
  // Full S_n is an automorphism group only if every service is connected
  // to every process (the connection pattern is permutation-invariant).
  for (int id : sys.serviceIds()) {
    if (!endpointsAreAllProcesses(sys.serviceMeta(id).endpoints, pol->n_)) {
      return disabled("service connection pattern is not process-symmetric");
    }
  }
  // Every service slot the relabeling touches must implement relabeledState.
  const ioa::SystemState init = sys.initialState();
  const std::vector<int> id = identityPerm(pol->n_);
  for (std::size_t k = static_cast<std::size_t>(pol->n_);
       k < init.partCount(); ++k) {
    if (!sys.componentAtSlot(k).relabeledState(init.part(k), id)) {
      return disabled("a service does not support relabeling");
    }
  }

  pol->trivial_ = false;
  return pol;
}

ioa::SystemState SymmetryPolicy::relabeled(const ioa::SystemState& s,
                                           const std::vector<int>& perm) const {
  if (isIdentity(perm)) return s;
  s.hash();  // flush slot caches so slotHashValue is the cached content hash
  ioa::SystemState t(s);
  // Process content is position-independent: move the shared pointer, no
  // clone, reusing the cached slot hash.
  for (int i = 0; i < n_; ++i) {
    const std::size_t from = sys_->slotForProcess(i);
    const std::size_t to = sys_->slotForProcess(perm[static_cast<std::size_t>(i)]);
    t.setSlot(to, s.slotShared(from), s.slotHashValue(from));
  }
  for (std::size_t k = static_cast<std::size_t>(n_); k < s.partCount(); ++k) {
    std::shared_ptr<const ioa::AutomatonState> ns =
        sys_->componentAtSlot(k).relabeledState(s.part(k), perm);
    assert(ns && "relabeledState support was validated in forSystem");
    const std::size_t h = ns->hash();
    t.setSlot(k, std::move(ns), h);
  }
  return t;
}

ioa::Action SymmetryPolicy::relabelAction(const ioa::Action& a,
                                          const std::vector<int>& perm) const {
  ioa::Action out = a;
  if (a.endpoint >= 0) out.endpoint = perm[static_cast<std::size_t>(a.endpoint)];
  return out;
}

std::optional<SymmetryPolicy::CanonResult> SymmetryPolicy::canonicalize(
    const ioa::SystemState& s) const {
  if (trivial_) return std::nullopt;
  ++statesRaw_;
  s.hash();  // flush the per-slot caches the colour order reads

  // Sort the endpoints by colour: the process slot content (cached hash,
  // then equality, then str() for unequal contents with equal hashes;
  // str() must be injective on process states of symmetric candidates),
  // then every service's view of the endpoint, in slot order.
  const auto colourLess = [&](int i, int j) {
    const std::size_t si = sys_->slotForProcess(i);
    const std::size_t sj = sys_->slotForProcess(j);
    const std::size_t hi = s.slotHashValue(si);
    const std::size_t hj = s.slotHashValue(sj);
    if (hi != hj) return hi < hj;
    if (s.slotShared(si).get() != s.slotShared(sj).get() &&
        !s.part(si).equals(s.part(sj))) {
      return s.part(si).str() < s.part(sj).str();
    }
    for (std::size_t k = static_cast<std::size_t>(n_); k < s.partCount();
         ++k) {
      const int c =
          sys_->componentAtSlot(k).compareEndpointViews(s.part(k), i, j);
      if (c != 0) return c < 0;
    }
    return false;
  };
  std::vector<int> order = identityPerm(n_);
  std::stable_sort(order.begin(), order.end(), colourLess);
  // A stable sort moves an endpoint only when the colours are out of
  // order, so a non-identity order always yields a different state.
  if (isIdentity(order)) return std::nullopt;

  ++orbitsCollapsed_;
  std::vector<int> perm = invertPerm(order);  // order[pos] moves to pos
  ioa::SystemState rep = relabeled(s, perm);
  rep.hash();  // publishable: every slot cache valid
  return CanonResult{std::move(rep), std::move(perm)};
}

}  // namespace boosting::analysis
