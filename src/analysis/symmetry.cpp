#include "analysis/symmetry.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <utility>

namespace boosting::analysis {

namespace {

// Deterministic total order over states with equal slot layout: per-slot
// cached hash first, serialized content on hash ties. Consistent with
// equals() as long as every component's str() is faithful (injective on
// distinct contents) -- a documented obligation of relabelable components.
int compareStates(const ioa::SystemState& a, const ioa::SystemState& b) {
  const std::size_t k = a.partCount();
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t ha = a.slotHashValue(i);
    const std::size_t hb = b.slotHashValue(i);
    if (ha != hb) return ha < hb ? -1 : 1;
    if (a.slotShared(i).get() == b.slotShared(i).get()) continue;
    const std::string sa = a.part(i).str();
    const std::string sb = b.part(i).str();
    if (sa != sb) return sa < sb ? -1 : 1;
  }
  return 0;
}

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
        "off by default: POR alone is faster on every measured candidate; "
        "--symmetry on enables the orbit quotient");
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

std::vector<std::vector<int>> SymmetryPolicy::candidatePerms(
    const ioa::SystemState& s) const {
  const int n = n_;
  std::vector<std::vector<int>> out;
  // Process contents are permutation-invariant, so any minimizing
  // permutation must sort the process slots by content. Order the slots by
  // (cached hash, serialized content) and enumerate only the assignments
  // within tied blocks; the candidate set is orbit-invariant because the
  // keys are content-determined.
  std::vector<std::size_t> h(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    h[static_cast<std::size_t>(i)] = s.slotHashValue(sys_->slotForProcess(i));
  }
  std::vector<std::string> strCache(static_cast<std::size_t>(n));
  std::vector<bool> strReady(static_cast<std::size_t>(n), false);
  const auto strOf = [&](int i) -> const std::string& {
    const auto ui = static_cast<std::size_t>(i);
    if (!strReady[ui]) {
      strCache[ui] = s.part(sys_->slotForProcess(i)).str();
      strReady[ui] = true;
    }
    return strCache[ui];
  };
  std::vector<int> order = identityPerm(n);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    const auto ha = h[static_cast<std::size_t>(a)];
    const auto hb = h[static_cast<std::size_t>(b)];
    if (ha != hb) return ha < hb;
    return strOf(a) < strOf(b);
  });
  const auto tied = [&](int a, int b) {
    return h[static_cast<std::size_t>(a)] == h[static_cast<std::size_t>(b)] &&
           strOf(a) == strOf(b);
  };
  // Blocks of content-equal slots, each owning a contiguous position range.
  struct Block {
    std::vector<int> procs;  // ascending process indices
    int basePos = 0;
  };
  std::vector<Block> blocks;
  for (int p = 0; p < n;) {
    Block b;
    b.basePos = p;
    int q = p;
    while (q < n && tied(order[static_cast<std::size_t>(p)],
                         order[static_cast<std::size_t>(q)])) {
      b.procs.push_back(order[static_cast<std::size_t>(q)]);
      ++q;
    }
    std::sort(b.procs.begin(), b.procs.end());
    blocks.push_back(std::move(b));
    p = q;
  }
  std::vector<int> perm(static_cast<std::size_t>(n));
  std::function<void(std::size_t)> rec = [&](std::size_t bi) {
    if (bi == blocks.size()) {
      out.push_back(perm);
      return;
    }
    std::vector<int> procs = blocks[bi].procs;
    const int basePos = blocks[bi].basePos;
    do {
      for (std::size_t k = 0; k < procs.size(); ++k) {
        perm[static_cast<std::size_t>(procs[k])] =
            basePos + static_cast<int>(k);
      }
      rec(bi + 1);
    } while (std::next_permutation(procs.begin(), procs.end()));
  };
  rec(0);
  return out;
}

std::optional<SymmetryPolicy::CanonResult> SymmetryPolicy::canonicalize(
    const ioa::SystemState& s) const {
  if (trivial_) return std::nullopt;
  ++statesRaw_;
  s.hash();  // flush the per-slot caches the candidate keys reuse

  const std::vector<std::vector<int>> perms = candidatePerms(s);
  assert(!perms.empty());
  if (perms.size() == 1 && isIdentity(perms[0])) return std::nullopt;

  std::optional<ioa::SystemState> best;
  std::size_t bestIdx = 0;
  for (std::size_t i = 0; i < perms.size(); ++i) {
    ioa::SystemState cand = relabeled(s, perms[i]);
    if (!best || compareStates(cand, *best) < 0) {
      best = std::move(cand);
      bestIdx = i;
    }
  }
  if (best->equals(s)) return std::nullopt;
  ++orbitsCollapsed_;
  best->hash();  // publishable: every slot cache valid
  return CanonResult{std::move(*best), perms[bestIdx]};
}

}  // namespace boosting::analysis
