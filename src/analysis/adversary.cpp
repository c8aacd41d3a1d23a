#include "analysis/adversary.h"

#include <algorithm>
#include <stdexcept>

#include "analysis/metrics.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "processes/process.h"
#include "sim/runner.h"

namespace boosting::analysis {

using ioa::Action;
using ioa::ActionKind;
using processes::ProcessBase;
using util::Value;

namespace {

// Reconstruct the init(v)_i prefix of an initialization root.
std::vector<Action> initActionsOf(const ioa::System& sys,
                                  const ioa::SystemState& root) {
  std::vector<Action> out;
  for (int i = 0; i < sys.processCount(); ++i) {
    const auto& ps = ProcessBase::stateOf(root.part(sys.slotForProcess(i)));
    if (!ps.input.isNil()) out.push_back(Action::envInit(i, ps.input));
  }
  return out;
}

// One pass over the process slots with no allocation: the safety scan runs
// this on every reachable node. Only a decided process rescans the slots,
// for an input equal to its decision. `partOf(slot)` is the component
// state at a slot.
template <typename PartOf>
std::optional<std::string> safetyViolation(const ioa::System& sys,
                                           PartOf&& partOf) {
  const int n = sys.processCount();
  const auto stateOf = [&](int i) -> const processes::ProcessStateBase& {
    return ProcessBase::stateOf(partOf(sys.slotForProcess(i)));
  };
  const Value* first = nullptr;
  int firstWho = -1;
  for (int i = 0; i < n; ++i) {
    const Value& v = stateOf(i).decision;
    if (v.isNil()) continue;
    bool valid = false;  // v is not nil, so a nil input never matches
    for (int j = 0; j < n && !valid; ++j) valid = stateOf(j).input == v;
    if (!valid) {
      return "validity violated: P" + std::to_string(i) + " decided " +
             v.str() + ", proposed by no process";
    }
    if (first == nullptr) {
      first = &v;
      firstWho = i;
    } else if (!(*first == v)) {
      return "agreement violated: P" + std::to_string(firstWho) +
             " decided " + first->str() + ", P" + std::to_string(i) +
             " decided " + v.str();
    }
  }
  return std::nullopt;
}

}  // namespace

std::optional<std::string> nodeSafetyViolation(const ioa::System& sys,
                                               const ioa::SystemState& s) {
  return safetyViolation(
      sys, [&s](std::size_t slot) -> const ioa::AutomatonState& {
        return s.part(slot);
      });
}

std::optional<std::string> nodeSafetyViolation(const StateGraph& g,
                                               NodeId id) {
  return safetyViolation(
      g.system(), [&g, id](std::size_t slot) -> const ioa::AutomatonState& {
        return g.slotState(id, slot);
      });
}

NodeId firstUnsafeNode(const StateGraph& g, obs::Registry* reg) {
  const ioa::System& sys = g.system();
  const int n = sys.processCount();
  std::vector<std::size_t> procSlots(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) procSlots[i] = sys.slotForProcess(i);
  // Per process slot id: its (decision, input), each interned to a small
  // int (0 = nil; equal ints iff equal values), filled on first sight.
  struct Recorded {
    std::uint32_t decision = 0;
    std::uint32_t input = 0;
    bool known = false;
  };
  std::vector<Recorded> recorded;
  std::vector<const Value*> values;  // int k + 1 -> its value
  const auto intern = [&values](const Value& v) -> std::uint32_t {
    if (v.isNil()) return 0;
    for (std::size_t k = 0; k < values.size(); ++k)
      if (*values[k] == v) return static_cast<std::uint32_t>(k + 1);
    values.push_back(&v);
    return static_cast<std::uint32_t>(values.size());
  };
  std::vector<Recorded> procs(static_cast<std::size_t>(n));
  for (NodeId node = 0; node < g.size(); ++node) {
    if (reg) reg->progress("safety_scan.nodes", node);
    const std::uint32_t* ids = g.row(node);
    for (int i = 0; i < n; ++i) {
      const std::uint32_t id = ids[procSlots[i]];
      if (id >= recorded.size()) recorded.resize(std::size_t{id} + 1);
      Recorded& r = recorded[id];
      if (!r.known) {
        const auto& ps = ProcessBase::stateOf(g.slotState(node, procSlots[i]));
        r = Recorded{intern(ps.decision), intern(ps.input), true};
      }
      procs[i] = r;
    }
    // The same predicate as nodeSafetyViolation, on the interned ints.
    std::uint32_t first = 0;
    for (int i = 0; i < n; ++i) {
      const std::uint32_t d = procs[i].decision;
      if (d == 0) continue;
      bool valid = false;
      for (int j = 0; j < n && !valid; ++j) valid = procs[j].input == d;
      if (!valid || (first != 0 && first != d)) return node;
      if (first == 0) first = d;
    }
  }
  return kNoNode;
}

namespace {

// Witness = init prefix of the node's root + the failure-free path to it.
//
// Under symmetry reduction the parent edges jump between orbit
// REPRESENTATIVES: apply(state(from), action) is in general only
// orbit-equal to state(to), so the recorded actions do not form an
// execution verbatim. Lifting re-aligns the path into one concrete frame.
// Pass 1 replays it, accumulating the canonicalization permutation at
// every step (pi_0 = id, pi_{t+1} = sigma_{t+1} o pi_t, where sigma is the
// permutation canonicalize() applied after the step). Pass 2 relabels the
// root by Pi = pi_T and the action taken at canonical state r_t by
// Pi o pi_t^{-1} (that state's concrete counterpart in the lifted
// execution is relabel_{Pi o pi_t^{-1}}(r_t)). By equivariance the lifted
// execution is genuine and ends exactly in state(node). Without the
// quotient canonicalize() always answers nullopt, every permutation is the
// identity, and the witness is the recorded path verbatim.
ioa::Execution witnessToNode(StateGraph& g, NodeId node) {
  const ioa::System& sys = g.system();
  const NodeId root = g.rootOf(node);
  const std::vector<Edge> path = g.pathTo(node);
  const SymmetryPolicy& pol = *g.symmetryPolicy();
  std::vector<std::vector<int>> pis;
  pis.reserve(path.size() + 1);
  pis.push_back(SymmetryPolicy::identityPerm(sys.processCount()));
  ioa::SystemState cur = g.state(root);
  for (const Edge& e : path) {
    cur = sys.apply(cur, e.action);
    if (auto c = pol.canonicalize(cur)) {
      pis.push_back(SymmetryPolicy::composePerm(c->perm, pis.back()));
      cur = std::move(c->state);
    } else {
      pis.push_back(pis.back());
    }
  }
  const std::vector<int>& Pi = pis.back();
  ioa::Execution exec;
  const ioa::SystemState start = pol.relabeled(g.state(root), Pi);
  for (Action& a : initActionsOf(sys, start)) exec.append(std::move(a));
  for (std::size_t t = 0; t < path.size(); ++t) {
    exec.append(pol.relabelAction(
        path[t].action,
        SymmetryPolicy::composePerm(Pi, SymmetryPolicy::invertPerm(pis[t]))));
  }
  return exec;
}

ioa::Execution witnessFromRun(StateGraph& g, NodeId startNode,
                              const sim::RunResult& run) {
  ioa::Execution exec = witnessToNode(g, startNode);
  for (const Action& a : run.exec.actions()) exec.append(a);
  return exec;
}

// The failure set J of Lemmas 6/7: |J| = f+1, containing (Lemma 6) the
// similar process j, or arranged around the similar service's endpoints
// (Lemma 7).
std::set<int> chooseFailureSet(const ioa::System& sys,
                               const HookClassification& cls,
                               int claimedFailures) {
  const int n = sys.processCount();
  std::set<int> J;
  auto fill = [&]() {
    for (int i = 0; i < n && static_cast<int>(J.size()) < claimedFailures;
         ++i) {
      J.insert(i);
    }
  };
  switch (cls.kind) {
    case HookClassification::Kind::ProcessSimilar:
      J.insert(cls.index);
      fill();
      break;
    case HookClassification::Kind::ServiceSimilar: {
      const auto& ends = sys.serviceMeta(cls.index).endpoints;
      if (static_cast<int>(ends.size()) <= claimedFailures) {
        J.insert(ends.begin(), ends.end());  // J_k subset of J
        fill();
      } else {
        for (int i : ends) {  // J subset of J_k
          if (static_cast<int>(J.size()) >= claimedFailures) break;
          J.insert(i);
        }
      }
      break;
    }
    default:
      fill();
      break;
  }
  return J;
}

sim::RunResult runGamma(const ioa::System& sys, const ioa::SystemState& start,
                        const std::set<int>& J, std::size_t maxSteps,
                        obs::Registry* metrics = nullptr) {
  sim::RunConfig cfg;
  cfg.startState = start;
  cfg.maxSteps = maxSteps;
  cfg.detectLivelock = true;
  cfg.stopWhenAllDecided = false;
  cfg.metrics = metrics;
  for (int i : J) cfg.failures.emplace_back(0, i);
  cfg.stop = [&J](const ioa::SystemState&, const ioa::Execution& exec) {
    if (exec.empty()) return false;
    const Action& a = exec.actions().back();
    return a.kind == ActionKind::EnvDecide && J.count(a.endpoint) == 0 &&
           a.payload.tag() == "decide";
  };
  return sim::run(sys, cfg);
}

// The failure sets the Lemma-4 branch tries for differing process P_d:
// {d} first, then every set of `claimed` processes containing d, in
// lexicographic order.
std::vector<std::set<int>> lemma4FailureSets(int n, int d, int claimed) {
  std::vector<std::set<int>> out = {{d}};
  if (claimed <= 1) return out;
  std::vector<int> pick(static_cast<std::size_t>(claimed));
  for (int k = 0; k < claimed; ++k) pick[k] = k;  // first combination
  while (true) {
    if (std::find(pick.begin(), pick.end(), d) != pick.end()) {
      out.emplace_back(pick.begin(), pick.end());
    }
    // Next combination in lexicographic order.
    int k = claimed - 1;
    while (k >= 0 && pick[k] == n - claimed + k) --k;
    if (k < 0) return out;
    ++pick[k];
    for (int j = k + 1; j < claimed; ++j) pick[j] = pick[j - 1] + 1;
  }
}

}  // namespace

std::string AdversaryReport::summary() const {
  std::string v;
  switch (verdict) {
    case Verdict::SafetyViolation: v = "SAFETY VIOLATION"; break;
    case Verdict::TerminationViolation: v = "TERMINATION VIOLATION"; break;
    case Verdict::Inconclusive: v = "INCONCLUSIVE"; break;
  }
  std::string fails;
  for (int i : witnessFailures) {
    if (!fails.empty()) fails += ",";
    fails += std::to_string(i);
  }
  return v + " -- " + narrative + (witnessFailures.empty()
                                       ? std::string(" [failure-free]")
                                       : " [failed: {" + fails + "}]");
}

AdversaryReport analyzeConsensusCandidate(const ioa::System& sys,
                                          const AdversaryConfig& cfg) {
  AdversaryReport report;
  if (cfg.claimedFailures < 1 || cfg.claimedFailures >= sys.processCount()) {
    throw std::logic_error(
        "adversary: claimed failures must satisfy 1 <= f+1 <= n-1 "
        "(the theorems assume 0 <= f < n-1)");
  }

  const std::shared_ptr<const SymmetryPolicy> symmetry =
      SymmetryPolicy::forSystem(sys, cfg.symmetry);
  const std::shared_ptr<const PorPolicy> por = PorPolicy::forSystem(sys, cfg.por);
  StateGraph g(sys, symmetry, por, cfg.memo);
  report.symmetryReduced = g.symmetryActive();
  if (!report.symmetryReduced) report.symmetryNote = symmetry->disabledReason();
  report.porReduced = g.porActive();
  if (!report.porReduced) report.porNote = por->disabledReason();

  // The case analysis runs in an immediately-invoked closure so the
  // quotient statistics after it are collected on every return path.
  [&] {
  ValenceAnalyzer va(g);
  va.setPolicy(cfg.exploration);
  obs::Registry* reg = cfg.exploration.metrics;

  // RAII: the graph- and cache-level tallies reach the registry on every
  // return path of the case analysis below, and phase.adversary brackets
  // the whole pipeline. Declared after `g` so the flush runs before the
  // graph is torn down.
  obs::ScopedTimer adversaryTimer(reg, "phase.adversary");
  struct Flusher {
    obs::Registry* reg;
    const StateGraph& g;
    // VmRSS sampled at construction when a registry is attached (reading
    // /proc costs a file parse; disabled observability stays free): the
    // flush reports the pipeline's RSS DELTA, which -- unlike the monotone
    // process-lifetime VmHWM behind process.peak_rss_bytes -- isolates
    // this pipeline from whatever the process held before it. Clamped at
    // zero (the kernel may reclaim pages mid-phase, driving VmRSS below
    // the starting sample).
    std::uint64_t rssBefore = reg ? currentRssBytes() : 0;
    ~Flusher() {
      flushGraphMetrics(reg, g);
      if (reg) {
        const std::uint64_t now = currentRssBytes();
        reg->maxOf("process.rss_delta_bytes",
                   now > rssBefore ? now - rssBefore : 0);
      }
    }
  } flusher{reg, g};

  // -- Steps 1 + 2: initializations, valence, exhaustive safety scan. -----
  BivalenceResult biv = findBivalentInitialization(g, va, cfg.exploration);
  report.initializations = biv.initializations;
  report.statesExplored = g.size();

  {
    obs::ScopedTimer safetyTimer(reg, "phase.safety_scan");
    const NodeId unsafe = firstUnsafeNode(g, reg);
    if (unsafe != kNoNode) {
      report.verdict = AdversaryReport::Verdict::SafetyViolation;
      report.narrative = *nodeSafetyViolation(g, unsafe);
      report.witness = witnessToNode(g, unsafe);
      return;
    }
    if (reg) reg->add("safety_scan.nodes", g.size());
  }

  for (const InitializationOutcome& init : biv.initializations) {
    if (init.valence == Valence::Null) {
      // No decision is reachable at all: every fair failure-free execution
      // violates termination. Materialize one.
      sim::RunConfig rc;
      rc.startState = g.state(init.node);
      rc.detectLivelock = true;
      rc.stopWhenAllDecided = false;
      rc.maxSteps = cfg.gammaMaxSteps;
      rc.metrics = reg;
      sim::RunResult rr = sim::run(sys, rc);
      report.verdict = AdversaryReport::Verdict::TerminationViolation;
      report.narrative =
          "initialization with " + std::to_string(init.onesPrefix) +
          " ones is Null-valent: no extension decides at all";
      report.witness = witnessFromRun(g, init.node, rr);
      return;
    }
  }

  if (!biv.bivalent) {
    // Lemma 4's contradiction, made concrete: fail the single process the
    // adjacent opposite-valent initializations differ in. An f-resilient
    // service may keep answering that one failure (the single failure
    // detector does), so when both runs decide, fail the differing process
    // together with f others: each set J of claimedFailures processes that
    // contains it, in lexicographic order.
    if (!biv.adjacentOppositePair) {
      report.narrative =
          "no bivalent initialization and no adjacent opposite-valent pair: "
          "valence certificates violate validity assumptions";
      return;
    }
    const auto& [a, b] = *biv.adjacentOppositePair;
    const int d = a.onesPrefix;  // alpha_j vs alpha_{j+1} differ at P_j
    for (const std::set<int>& J : lemma4FailureSets(sys.processCount(), d,
                                                    cfg.claimedFailures)) {
      for (const InitializationOutcome* init : {&a, &b}) {
        // The differing process P_d is meaningful in the CONCRETE frame of
        // the canonical initializations; under symmetry the graph node only
        // holds the orbit representative, so rebuild alpha_j itself
        // (without the quotient the node is a root holding exactly this
        // state).
        const ioa::SystemState start =
            canonicalInitialization(sys, init->onesPrefix);
        sim::RunResult rr = runGamma(sys, start, J, cfg.gammaMaxSteps, reg);
        if (!rr.livelocked() &&
            rr.reason != sim::RunResult::Reason::StepLimit) {
          continue;
        }
        std::string others;
        for (int i : J) {
          if (i == d) continue;
          others += (others.empty() ? "P" : ", P") + std::to_string(i);
        }
        report.verdict = AdversaryReport::Verdict::TerminationViolation;
        report.narrative =
            "Lemma 4 construction: failing the differing process P" +
            std::to_string(d) +
            (others.empty() ? "" : " together with " + others) +
            " after the " + std::to_string(init->onesPrefix) +
            "-ones initialization yields a fair execution in which no "
            "correct process decides";
        ioa::Execution exec;
        for (Action& ia : initActionsOf(sys, start)) {
          exec.append(std::move(ia));
        }
        for (const Action& ra : rr.exec.actions()) exec.append(ra);
        report.witness = std::move(exec);
        report.witnessFailures = J;
        return;
      }
    }
    report.narrative =
        "adjacent opposite-valent initializations both decide after failing "
        "the differing process: valence certificates are inconsistent";
    return;
  }

  report.bivalentInit = biv.bivalent;

  // -- Step 3: hook search (Lemma 5 / Fig. 3). ----------------------------
  HookSearchOutcome hs = findHook(g, va, biv.bivalent->node,
                                  cfg.hookMaxIterations, cfg.exploration);
  report.statesExplored = g.size();
  report.fairCycle = hs.fairCycle;

  if (hs.fairCycle) {
    // A failure-free fair execution that never decides.
    report.verdict = AdversaryReport::Verdict::TerminationViolation;
    report.narrative =
        "hook search revisited a (configuration, round-robin cursor) pair: "
        "infinite fair FAILURE-FREE execution through bivalent "
        "configurations (no process ever decides)";
    ioa::Execution exec = witnessToNode(g, hs.cycleStart);
    // Append one period of the cycle for concreteness.
    ioa::SystemState s = g.state(hs.cycleStart);
    for (const ioa::TaskId& t : hs.cycleTasks) {
      if (auto a = sys.enabled(s, t)) {
        sys.applyInPlace(s, *a);
        exec.append(*a);
      }
    }
    report.witness = std::move(exec);
    return;
  }

  if (!hs.hook) {
    report.narrative = "hook search budget exhausted";
    return;
  }
  report.hook = hs.hook;

  // -- Step 4: Lemma 8 case analysis + the gamma construction. ------------
  SimilarityOptions simOpts;
  simOpts.exemptFailureAware = cfg.exemptFailureAware;

  const bool zeroSideIsAlpha0 = hs.hook->alpha0Valence == Valence::Zero;
  std::optional<ioa::SystemState> gammaStart;
  NodeId witnessAnchor = kNoNode;  // witness = lifted path here + prefix
  std::vector<Action> gammaPrefix;  // concrete actions from the anchor

  if (!g.symmetryActive()) {
    report.classification = classifyHook(g, *hs.hook, simOpts);
    // Start the gamma run from the 0-valent side (the proofs' convention);
    // with viaEPrime, from its e'-extension, which is still 0-valent.
    NodeId startNode = zeroSideIsAlpha0 ? hs.hook->alpha0 : hs.hook->alpha1;
    if (report.classification.viaEPrime) {
      if (auto edge = g.successorVia(hs.hook->alpha0, hs.hook->ePrime)) {
        startNode = edge->to;
      }
    }
    gammaStart = g.state(startNode);
    witnessAnchor = startNode;
  } else {
    // Under the quotient, alpha1's representative is reached by applying e
    // at the REPRESENTATIVE of e'(alpha), i.e. by a possibly relabeled
    // copy of e -- the quotient hook does not certify a same-task concrete
    // hook directly. Re-derive the extensions concretely from
    // A = state(alpha), itself a genuine reachable configuration, so the
    // classification, the failure set J and the gamma start share one
    // concrete frame and need no permutation bookkeeping. (The verdict
    // never rests on this alignment: it comes from the gamma run itself,
    // a concrete simulation from a reachable state.)
    const ioa::SystemState& A = g.state(hs.hook->alpha);
    const std::optional<Action> aE = sys.enabled(A, hs.hook->e);
    const std::optional<Action> aEp = sys.enabled(A, hs.hook->ePrime);
    std::optional<ioa::SystemState> x0, x1, x0p;
    std::optional<Action> aEAtB, aEpAtX0;
    if (aE) x0 = sys.apply(A, *aE);
    if (aEp) {
      const ioa::SystemState b = sys.apply(A, *aEp);
      if ((aEAtB = sys.enabled(b, hs.hook->e))) x1 = sys.apply(b, *aEAtB);
    }
    if (x0 && (aEpAtX0 = sys.enabled(*x0, hs.hook->ePrime))) {
      x0p = sys.apply(*x0, *aEpAtX0);
    }
    if (x0 && x1) {
      report.classification =
          classifyHookStates(sys, *x0, *x1, x0p ? &*x0p : nullptr, simOpts);
    } else {
      report.classification.narrative =
          "hook tasks not concretely co-applicable at the representative "
          "of alpha (quotient artifact); failing a default f+1 set";
    }
    // Gamma start on the 0-valent side, built concretely: x0 is in
    // alpha0's orbit, so it carries alpha0's valence exactly; the
    // e/e'-swapped x1 is the natural counterpart for the mirror hook.
    if (report.classification.viaEPrime && x0p) {
      gammaStart = *x0p;
      gammaPrefix = {*aE, *aEpAtX0};
    } else if (zeroSideIsAlpha0 && x0) {
      gammaStart = *x0;
      gammaPrefix = {*aE};
    } else if (!zeroSideIsAlpha0 && x1) {
      gammaStart = *x1;
      gammaPrefix = {*aEp, *aEAtB};
    } else if (x0) {
      gammaStart = *x0;
      gammaPrefix = {*aE};
    } else {
      gammaStart = A;
    }
    witnessAnchor = hs.hook->alpha;
  }

  const std::set<int> J =
      chooseFailureSet(sys, report.classification, cfg.claimedFailures);
  if (reg) {
    if (auto* tw = reg->trace()) {
      tw->event("adversary.gamma",
                {{"start_node", static_cast<std::uint64_t>(witnessAnchor)},
                 {"failures", static_cast<std::uint64_t>(J.size())},
                 {"classification", report.classification.narrative}});
    }
  }
  sim::RunResult rr = runGamma(sys, *gammaStart, J, cfg.gammaMaxSteps, reg);

  if (rr.livelocked() || rr.reason == sim::RunResult::Reason::StepLimit) {
    report.verdict = AdversaryReport::Verdict::TerminationViolation;
    report.narrative =
        "gamma construction (" + report.classification.narrative +
        "): after failing J = f+1 processes and letting the silenced "
        "services take dummy steps, the fair execution never decides";
    ioa::Execution exec = witnessToNode(g, witnessAnchor);
    for (const Action& pa : gammaPrefix) exec.append(pa);
    for (const Action& ra : rr.exec.actions()) exec.append(ra);
    report.witness = std::move(exec);
    report.witnessFailures = J;
    return;
  }

  // The gamma run decided. For a sound valence certificate this is
  // impossible (the Lemma 6/7 replay after the opposite-valent hook
  // endpoint would contradict its valence); report what happened.
  report.narrative =
      "gamma construction decided despite f+1 failures (" +
      report.classification.narrative +
      "); replay after the opposite hook endpoint would contradict its "
      "valence -- certificate inconsistency, inspect the candidate";
  }();

  if (report.symmetryReduced) {
    report.symmetryStatesRaw = symmetry->statesRaw();
    report.symmetryOrbitsCollapsed = symmetry->orbitsCollapsed();
  }
  if (report.porReduced) {
    report.porNodesReduced = por->nodesReduced();
    report.porTasksSkipped = por->tasksSkipped();
    report.porProvisoHits = por->provisoHits();
  }
  return report;
}

TerminationSearchReport searchTerminationCounterexample(
    const ioa::System& sys, int maxFailures, std::size_t maxSteps) {
  const int n = sys.processCount();
  if (n > 20) {
    throw std::logic_error(
        "searchTerminationCounterexample: subset enumeration is bounded to "
        "20 processes");
  }
  if (maxFailures < 1 || maxFailures >= n) {
    throw std::logic_error(
        "searchTerminationCounterexample: need 1 <= maxFailures <= n-1");
  }
  TerminationSearchReport report;
  for (unsigned mask = 1; mask < (1u << n); ++mask) {
    const int popcount = __builtin_popcount(mask);
    if (popcount > maxFailures) continue;
    for (int ones = 0; ones <= n; ++ones) {
      sim::RunConfig cfg;
      for (int i = 0; i < n; ++i) {
        cfg.inits.emplace_back(i, util::Value(i < ones ? 1 : 0));
      }
      for (int i = 0; i < n; ++i) {
        if ((mask >> i) & 1u) cfg.failures.emplace_back(0, i);
      }
      cfg.detectLivelock = true;
      cfg.maxSteps = maxSteps;
      sim::RunResult rr = sim::run(sys, cfg);
      ++report.runsTried;
      if (rr.allDecided()) {
        ++report.runsDecided;
        continue;
      }
      if (rr.livelocked()) {
        report.counterexampleFound = true;
        for (int i = 0; i < n; ++i) {
          if ((mask >> i) & 1u) report.failureSet.insert(i);
        }
        report.onesPrefix = ones;
        report.witness = std::move(rr.exec);
        return report;
      }
      // StepLimit without a decision is suspicious but not a certificate;
      // keep searching for a certified livelock.
    }
  }
  return report;
}

}  // namespace boosting::analysis
