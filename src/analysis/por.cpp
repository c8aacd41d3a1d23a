#include "analysis/por.h"

#include <algorithm>
#include <bit>

namespace boosting::analysis {

namespace {

inline int popcount(std::uint64_t m) { return std::popcount(m); }

inline std::uint64_t bit(std::size_t i) { return std::uint64_t{1} << i; }

inline bool codeEnabled(std::uint32_t code) { return (code & 1u) != 0; }
inline ioa::ActionKind codeKind(std::uint32_t code) {
  return static_cast<ioa::ActionKind>((code >> 1) & 0x1fu);
}
inline int codeServiceIndex(std::uint32_t code) {
  return static_cast<int>(code >> 6) - 1;
}

}  // namespace

std::shared_ptr<const PorPolicy> PorPolicy::forSystem(const ioa::System& sys,
                                                      PorMode mode) {
  std::shared_ptr<PorPolicy> pol(new PorPolicy());
  pol->sys_ = &sys;
  const auto disabled = [&pol](std::string why) {
    pol->trivial_ = true;
    pol->disabledReason_ = std::move(why);
    return pol;
  };
  if (mode == PorMode::Off) return disabled("disabled (--por off)");

  const auto& tasks = sys.allTasks();
  if (tasks.empty()) return disabled("system has no tasks");
  if (tasks.size() > kMaxTasks)
    return disabled("more than 64 tasks (stubborn sets are u64 masks)");

  const int n = sys.processCount();
  const std::vector<int> svcIds = sys.serviceIds();
  // Dense service index, and per-component declared task structure.
  std::vector<ioa::Automaton::TaskStructure> procTs(
      static_cast<std::size_t>(n));
  std::vector<ioa::Automaton::TaskStructure> svcTs(svcIds.size());
  for (int i = 0; i < n; ++i) {
    procTs[i] = sys.componentAtSlot(sys.slotForProcess(i)).taskStructure();
    if (!procTs[i].conformant)
      return disabled("process " + std::to_string(i) +
                      " declares no canonical task structure");
    for (int c : procTs[i].mayInvoke) {
      if (std::find(svcIds.begin(), svcIds.end(), c) == svcIds.end())
        return disabled("process " + std::to_string(i) +
                        " declares invoking unknown service " +
                        std::to_string(c));
      const auto& eps = sys.serviceMeta(c).endpoints;
      if (std::find(eps.begin(), eps.end(), i) == eps.end())
        return disabled("process " + std::to_string(i) +
                        " declares invoking service " + std::to_string(c) +
                        " but is not one of its endpoints");
    }
  }
  for (std::size_t s = 0; s < svcIds.size(); ++s) {
    svcTs[s] = sys.componentAtSlot(sys.slotForService(svcIds[s]))
                   .taskStructure();
    if (!svcTs[s].conformant)
      return disabled("service " + std::to_string(svcIds[s]) +
                      " declares no canonical task structure");
  }

  const auto serviceIndexOf = [&svcIds](int c) -> int {
    const auto it = std::find(svcIds.begin(), svcIds.end(), c);
    return it == svcIds.end() ? -1
                              : static_cast<int>(it - svcIds.begin());
  };
  // Position of endpoint i inside J_c (the resource layout below is per
  // endpoint position, not per endpoint id).
  const auto endpointPos = [&sys](int c, int i) -> int {
    const auto& eps = sys.serviceMeta(c).endpoints;
    const auto it = std::find(eps.begin(), eps.end(), i);
    return it == eps.end() ? -1 : static_cast<int>(it - eps.begin());
  };

  // -- Resource layout (see the header comment) ---------------------------
  // procCore(i) = i; per service (dense index s, endpoint position p):
  // svcCore, then invHead/invTail/respHead/respTail per position. With
  // coalesced responses respTail aliases respHead: a coalescing push reads
  // the buffer tail, so push/pop no longer commute and must conflict.
  std::vector<int> svcBase(svcIds.size());
  int nextResource = n;
  for (std::size_t s = 0; s < svcIds.size(); ++s) {
    svcBase[s] = nextResource;
    nextResource +=
        1 + 4 * static_cast<int>(sys.serviceMeta(svcIds[s]).endpoints.size());
  }
  const auto procCore = [](int i) { return i; };
  const auto svcCore = [&svcBase](int s) { return svcBase[s]; };
  const auto invHead = [&svcBase](int s, int p) {
    return svcBase[s] + 1 + 4 * p;
  };
  const auto invTail = [&svcBase](int s, int p) {
    return svcBase[s] + 2 + 4 * p;
  };
  const auto respHead = [&svcBase](int s, int p) {
    return svcBase[s] + 3 + 4 * p;
  };
  const auto respTail = [&svcBase, &svcTs, &respHead](int s, int p) {
    return svcTs[s].coalescedResponses ? respHead(s, p)
                                       : svcBase[s] + 4 + 4 * p;
  };

  // Static over-approximate footprint per task (union over its action
  // variants): the basis for the dependency masks. Enabled process tasks
  // refine this per action (base vs invoke variant); service tasks have a
  // single variant, so their static footprint is exact.
  const std::size_t nTasks = tasks.size();
  std::vector<std::vector<int>> possibleFp(nTasks);
  pol->tasks_.resize(nTasks);
  std::vector<int> processTaskIdx(static_cast<std::size_t>(n), -1);
  // (serviceIndex, endpointPos) -> perform/output task index.
  std::vector<std::vector<int>> performIdx(svcIds.size());
  std::vector<std::vector<int>> outputIdx(svcIds.size());
  for (std::size_t s = 0; s < svcIds.size(); ++s) {
    const std::size_t eps = sys.serviceMeta(svcIds[s]).endpoints.size();
    performIdx[s].assign(eps, -1);
    outputIdx[s].assign(eps, -1);
  }

  for (std::size_t ti = 0; ti < nTasks; ++ti) {
    const ioa::TaskId& t = tasks[ti];
    TaskInfo& info = pol->tasks_[ti];
    info.owner = t.owner;
    info.component = t.component;
    info.endpoint = t.endpoint;
    switch (t.owner) {
      case ioa::TaskOwner::Process: {
        processTaskIdx[t.component] = static_cast<int>(ti);
        info.alwaysEnabled = true;  // ProcessBase always offers an action
        possibleFp[ti].push_back(procCore(t.component));
        for (int c : procTs[t.component].mayInvoke) {
          const int s = serviceIndexOf(c);
          possibleFp[ti].push_back(
              invTail(s, endpointPos(c, t.component)));
        }
        break;
      }
      case ioa::TaskOwner::ServicePerform: {
        const int s = serviceIndexOf(t.component);
        info.serviceIndex = s;
        const int p = endpointPos(t.component, t.endpoint);
        performIdx[s][p] = static_cast<int>(ti);
        possibleFp[ti].push_back(invHead(s, p));
        possibleFp[ti].push_back(svcCore(s));
        if (svcTs[s].respondsToInvokerOnly) {
          possibleFp[ti].push_back(respTail(s, p));
        } else {
          const std::size_t eps =
              sys.serviceMeta(t.component).endpoints.size();
          for (std::size_t q = 0; q < eps; ++q)
            possibleFp[ti].push_back(respTail(s, static_cast<int>(q)));
        }
        break;
      }
      case ioa::TaskOwner::ServiceOutput: {
        const int s = serviceIndexOf(t.component);
        info.serviceIndex = s;
        const int p = endpointPos(t.component, t.endpoint);
        outputIdx[s][p] = static_cast<int>(ti);
        possibleFp[ti].push_back(respHead(s, p));
        possibleFp[ti].push_back(procCore(t.endpoint));
        break;
      }
      case ioa::TaskOwner::ServiceCompute: {
        const int s = serviceIndexOf(t.component);
        info.serviceIndex = s;
        info.alwaysEnabled = true;  // delta2 is total
        possibleFp[ti].push_back(svcCore(s));
        const std::size_t eps = sys.serviceMeta(t.component).endpoints.size();
        for (std::size_t q = 0; q < eps; ++q)
          possibleFp[ti].push_back(respTail(s, static_cast<int>(q)));
        break;
      }
    }
  }

  // resource -> tasks whose possible footprint touches it.
  std::vector<std::uint64_t> resourceTasks(
      static_cast<std::size_t>(nextResource), 0);
  for (std::size_t ti = 0; ti < nTasks; ++ti)
    for (int r : possibleFp[ti]) resourceTasks[r] |= bit(ti);
  const auto depsOf = [&resourceTasks](const std::vector<int>& fp) {
    std::uint64_t m = 0;
    for (int r : fp) m |= resourceTasks[r];
    return m;
  };

  // Dependency masks per task variant, and necessary enabling sets.
  for (std::size_t ti = 0; ti < nTasks; ++ti) {
    const ioa::TaskId& t = tasks[ti];
    TaskInfo& info = pol->tasks_[ti];
    switch (t.owner) {
      case ioa::TaskOwner::Process: {
        info.depBase = depsOf({procCore(t.component)});
        info.depInvoke.assign(svcIds.size(), 0);
        for (int c : procTs[t.component].mayInvoke) {
          const int s = serviceIndexOf(c);
          info.depInvoke[s] = depsOf(
              {procCore(t.component), invTail(s, endpointPos(c, t.component))});
        }
        break;
      }
      case ioa::TaskOwner::ServicePerform: {
        info.depBase = depsOf(possibleFp[ti]);
        // Only P_i pushes invBuf(c,i); if it never invokes c, a disabled
        // perform stays disabled forever (dead).
        const auto& may = procTs[t.endpoint].mayInvoke;
        if (std::find(may.begin(), may.end(), t.component) != may.end())
          info.nes = bit(static_cast<std::size_t>(processTaskIdx[t.endpoint]));
        break;
      }
      case ioa::TaskOwner::ServiceOutput: {
        info.depBase = depsOf(possibleFp[ti]);
        const int s = info.serviceIndex;
        const int p = endpointPos(t.component, t.endpoint);
        if (svcTs[s].respondsToInvokerOnly) {
          info.nes = bit(static_cast<std::size_t>(performIdx[s][p]));
        } else {
          for (int pi : performIdx[s])
            info.nes |= bit(static_cast<std::size_t>(pi));
        }
        // Computes push responses too (delta2's resps may target anyone).
        for (std::size_t tj = 0; tj < nTasks; ++tj)
          if (tasks[tj].owner == ioa::TaskOwner::ServiceCompute &&
              tasks[tj].component == t.component)
            info.nes |= bit(tj);
        break;
      }
      case ioa::TaskOwner::ServiceCompute:
        info.depBase = depsOf(possibleFp[ti]);
        break;
    }
  }

  pol->serviceIds_ = svcIds;
  pol->taskCount_ = nTasks;
  pol->trivial_ = false;
  return pol;
}

std::uint32_t PorPolicy::codeFor(std::size_t ti, const ioa::Action* a,
                                 bool* analyzable,
                                 std::uint32_t* violations) const {
  if (a == nullptr) return 0;
  const TaskInfo& info = tasks_[ti];
  const auto pack = [](ioa::ActionKind k, int svcIdxPlus1 = 0) {
    return 1u | (static_cast<std::uint32_t>(k) << 1) |
           (static_cast<std::uint32_t>(svcIdxPlus1) << 6);
  };
  switch (info.owner) {
    case ioa::TaskOwner::Process:
      switch (a->kind) {
        case ioa::ActionKind::ProcStep:
        case ioa::ActionKind::ProcDummy:
        case ioa::ActionKind::EnvDecide:
          return pack(a->kind);
        case ioa::ActionKind::Invoke: {
          // An invocation outside the declared mayInvoke set means the
          // component lied; count it and expand this configuration fully.
          int s = -1;
          for (std::size_t q = 0; q < info.depInvoke.size(); ++q)
            if (serviceIds_[q] == a->component) s = static_cast<int>(q);
          if (s < 0 || info.depInvoke[s] == 0) {
            ++*violations;
            *analyzable = false;
            return pack(a->kind);
          }
          return pack(a->kind, s + 1);
        }
        default:
          break;
      }
      break;
    case ioa::TaskOwner::ServicePerform:
      if (a->kind == ioa::ActionKind::Perform) return pack(a->kind);
      break;
    case ioa::TaskOwner::ServiceOutput:
      if (a->kind == ioa::ActionKind::Respond) return pack(a->kind);
      break;
    case ioa::TaskOwner::ServiceCompute:
      if (a->kind == ioa::ActionKind::Compute) return pack(a->kind);
      break;
  }
  // Dummy service actions, fails, anything unexpected: only reachable off
  // the failure-free analysis plane; don't try to reduce around it.
  *analyzable = false;
  return pack(a->kind);
}

std::uint64_t PorPolicy::deadTasks(std::uint64_t enabledMask) const {
  // A disabled task is LIVE if some chain of potential enablers reaches an
  // enabled task; everything else can never fire again (the enabler
  // relation bottoms out at always-enabled tasks or at empty NES, both of
  // which are permanent facts given the declared mayInvoke relation).
  std::uint64_t live = enabledMask;
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t ti = 0; ti < taskCount_; ++ti) {
      const std::uint64_t b = bit(ti);
      if ((live & b) != 0) continue;
      if ((tasks_[ti].nes & live) != 0) {
        live |= b;
        changed = true;
      }
    }
  }
  const std::uint64_t all =
      taskCount_ == 64 ? ~std::uint64_t{0} : (bit(taskCount_) - 1);
  return all & ~live;
}

std::uint64_t PorPolicy::closureFor(std::size_t seed, const Signature& sig,
                                    std::uint64_t enabledMask,
                                    std::uint64_t deadMask,
                                    bool* valid) const {
  *valid = true;
  std::uint64_t T = bit(seed);
  std::uint64_t work = T;
  while (work != 0) {
    const std::size_t t =
        static_cast<std::size_t>(std::countr_zero(work));
    work &= work - 1;
    const std::uint32_t code = sig[t];
    std::uint64_t add = 0;
    if (codeEnabled(code)) {
      const TaskInfo& info = tasks_[t];
      if (info.owner == ioa::TaskOwner::Process &&
          codeKind(code) == ioa::ActionKind::Invoke) {
        add = info.depInvoke[codeServiceIndex(code)];
      } else {
        add = info.depBase;
      }
    } else {
      if ((deadMask & bit(t)) != 0) continue;  // constrains nothing
      add = tasks_[t].nes;
      if (add == 0) {
        *valid = false;  // disabled, not dead, no enabler model: bail
        return enabledMask;
      }
    }
    const std::uint64_t fresh = add & ~T;
    T |= fresh;
    work |= fresh;
  }
  return T;
}

std::uint64_t PorPolicy::computeAmple(const Signature& sig,
                                      std::uint64_t enabledMask) const {
  // An always-enabled task showing up disabled means the configuration is
  // off the analysis plane (failures injected); expand fully.
  for (std::size_t ti = 0; ti < taskCount_; ++ti)
    if (tasks_[ti].alwaysEnabled && !codeEnabled(sig[ti]))
      return enabledMask;

  const std::uint64_t deadMask = deadTasks(enabledMask);
  std::uint64_t best = enabledMask;
  int bestCount = popcount(enabledMask);
  for (std::uint64_t seeds = enabledMask; seeds != 0; seeds &= seeds - 1) {
    const std::size_t seed =
        static_cast<std::size_t>(std::countr_zero(seeds));
    bool valid = false;
    const std::uint64_t T =
        closureFor(seed, sig, enabledMask, deadMask, &valid);
    if (!valid) continue;
    const std::uint64_t ample = T & enabledMask;
    if (ample == enabledMask) continue;  // no reduction from this seed
    // C2: a proper ample set must not contain a decide step.
    // Also skip ample sets made of no-op self-loops only: their targets
    // are all the source node, so the cycle proviso would reject them.
    bool decide = false;
    bool real = false;
    for (std::uint64_t m = ample; m != 0; m &= m - 1) {
      const std::uint32_t code =
          sig[static_cast<std::size_t>(std::countr_zero(m))];
      if (codeKind(code) == ioa::ActionKind::EnvDecide) decide = true;
      if (codeKind(code) != ioa::ActionKind::ProcDummy) real = true;
    }
    if (decide || !real) continue;
    const int cnt = popcount(ample);
    if (cnt < bestCount) {
      best = ample;
      bestCount = cnt;
    }
  }
  return best;
}

PorPolicy::Decision PorPolicy::decide(
    const std::vector<const ioa::Action*>& actions, Signature* sig) const {
  Decision d;
  sig->resize(taskCount_);
  bool analyzable = true;
  for (std::size_t ti = 0; ti < taskCount_; ++ti) {
    (*sig)[ti] = codeFor(ti, actions[ti], &analyzable, &d.violations);
    if (codeEnabled((*sig)[ti])) d.enabled |= bit(ti);
  }
  d.ample = analyzable ? computeAmple(*sig, d.enabled) : d.enabled;
  return d;
}

void PorPolicy::record(const Decision& d) const {
  ++nodesEvaluated_;
  enabledSum_ += static_cast<std::uint64_t>(popcount(d.enabled));
  ampleSum_ += static_cast<std::uint64_t>(popcount(d.ample));
  declarationViolations_ += d.violations;
}

std::uint64_t PorPolicy::ampleMask(
    const std::vector<const ioa::Action*>& actions,
    std::uint64_t* enabledOut) const {
  if (trivial_) {
    std::uint64_t enabledMask = 0;
    for (std::size_t ti = 0; ti < actions.size(); ++ti)
      if (actions[ti] != nullptr) enabledMask |= bit(ti);
    *enabledOut = enabledMask;
    return enabledMask;
  }
  Signature sig;
  const Decision d = decide(actions, &sig);
  record(d);
  *enabledOut = d.enabled;
  return d.ample;
}

std::uint32_t PorPolicy::ampleDecision(const std::uint32_t* ids,
                                       TransitionCache& cache) const {
  // Only a class row's first request lists the per-task actions.
  const auto decideFresh = [&] {
    std::vector<const ioa::Action*> actions(taskCount_);
    for (std::size_t ti = 0; ti < taskCount_; ++ti) {
      actions[ti] = cache.enabledAction(ids, ti);
    }
    Signature sig;
    return decide(actions, &sig);
  };
  const std::uint32_t id = cache.ampleDecision(ids, decideFresh);
  record(cache.decisionAt(id));
  return id;
}

}  // namespace boosting::analysis
