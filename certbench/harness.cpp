// certbench_harness: the C++ side of the certificate benchmark.
//
// One invocation computes (at most) one certificate for one candidate spec
// and prints one JSON object on stdout. certbench/run.py launches a fresh
// process per certificate, so the peak RSS it reads through wait4() belongs
// to exactly one certificate.
//
//   certbench_harness MODE --candidate C --n N --f F [--threads T]
//                     [--symmetry auto|on|off] [--por auto|on|off]
//                     [--launch-ns NS]
//
// Modes:
//   setup        build the candidate System, its symmetry and POR policies
//                and an empty StateGraph, then exit. setup_s is measured
//                from NS (CLOCK_MONOTONIC, taken by the parent just before
//                it launched this process) to that point.
//   cert         setup, then one untraced analyzeConsensusCandidate call
//                (cert_s covers the call including the StateGraph teardown
//                at its return), then the correctness checks: verdict,
//                Lemma-4 valences, states explored, and a replay of the
//                witness through ioa::System.
//   traced-cert  like cert, but with an obs::Registry attached; prints the
//                registry's counters and timers.
//   stages       one untraced certificate, then the staged replay: the
//                pipeline's steps re-run through their public functions on
//                fresh graphs, each inside a span. Prints the spans and the
//                per-layer figures derived from them.
//   calibrate    no engine call: a fixed unit of host work (fault in fresh
//                pages, then a dependent integer chain). Prints calib_s, its
//                wall time, which run.py uses to rescale CPU-bound timings
//                to a reference host speed.
//
// Nothing here changes engine behaviour; spans sit around calls into the
// engine's public API only.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "analysis/adversary.h"
#include "analysis/bivalence.h"
#include "analysis/hook.h"
#include "analysis/parallel_explorer.h"
#include "analysis/similarity.h"
#include "analysis/state_graph.h"
#include "analysis/valence.h"
#include "ioa/execution.h"
#include "obs/registry.h"
#include "processes/process.h"
#include "serve/candidates.h"
#include "serve/wire.h"
#include "sim/runner.h"

using namespace boosting;
using Clock = std::chrono::steady_clock;

namespace {

struct Spec {
  std::string mode;
  std::string candidate = "relay";
  int n = 3;
  int f = 1;
  unsigned threads = 1;
  analysis::SymmetryMode symmetry = analysis::SymmetryMode::Auto;
  analysis::PorMode por = analysis::PorMode::Auto;
  std::int64_t launchNs = -1;  // -1: measure setup from main() instead
};

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "certbench_harness: %s\n", msg.c_str());
  std::exit(2);
}

template <typename Mode>
Mode parseMode(const std::string& v, const char* flag, Mode autoV, Mode onV,
               Mode offV) {
  if (v == "auto") return autoV;
  if (v == "on") return onV;
  if (v == "off") return offV;
  die(std::string(flag) + ": expected auto|on|off, got '" + v + "'");
}

int parseInt(const char* flag, const char* text) {
  char* end = nullptr;
  const long v = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || v < 0 || v > 1000) {
    die(std::string(flag) + ": not a small non-negative integer: '" + text +
        "'");
  }
  return static_cast<int>(v);
}

Spec parseArgs(int argc, char** argv) {
  if (argc < 2) {
    die("usage: certbench_harness setup|cert|traced-cert|stages|calibrate ...");
  }
  Spec s;
  s.mode = argv[1];
  if (s.mode != "setup" && s.mode != "cert" && s.mode != "traced-cert" &&
      s.mode != "stages" && s.mode != "calibrate") {
    die("unknown mode '" + s.mode + "'");
  }
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) die(flag + " requires an argument");
    const char* v = argv[++i];
    if (flag == "--candidate") {
      s.candidate = v;
    } else if (flag == "--n") {
      s.n = parseInt("--n", v);
    } else if (flag == "--f") {
      s.f = parseInt("--f", v);
    } else if (flag == "--threads") {
      s.threads = static_cast<unsigned>(parseInt("--threads", v));
    } else if (flag == "--symmetry") {
      s.symmetry = parseMode(std::string(v), "--symmetry",
                             analysis::SymmetryMode::Auto,
                             analysis::SymmetryMode::On,
                             analysis::SymmetryMode::Off);
    } else if (flag == "--por") {
      s.por = parseMode(std::string(v), "--por", analysis::PorMode::Auto,
                        analysis::PorMode::On, analysis::PorMode::Off);
    } else if (flag == "--launch-ns") {
      s.launchNs = std::strtoll(v, nullptr, 10);
    } else {
      die("unknown flag " + flag);
    }
  }
  if (s.f + 1 >= s.n) die("need f + 1 < n");
  return s;
}

std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Minimal writer for the one flat-ish JSON object each mode prints.
class JsonOut {
 public:
  JsonOut& num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return raw(key, buf);
  }
  JsonOut& integer(const std::string& key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonOut& str(const std::string& key, const std::string& v) {
    return raw(key, serve::quoteJson(v));
  }
  JsonOut& raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ",") + serve::quoteJson(key) + ":" + json;
    return *this;
  }
  std::string done() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

analysis::AdversaryConfig adversaryConfig(const Spec& s,
                                          obs::Registry* reg = nullptr) {
  // The same configuration boosting_analyze and boosting_served build.
  analysis::AdversaryConfig cfg;
  cfg.claimedFailures = s.f + 1;
  cfg.exemptFailureAware = true;
  cfg.exploration.threads = s.threads;
  cfg.exploration.metrics = reg;
  cfg.symmetry = s.symmetry;
  cfg.por = s.por;
  return cfg;
}

std::unique_ptr<ioa::System> buildSystem(const Spec& s) {
  std::string err;
  auto sys = serve::buildCandidateSystem(s.candidate, s.n, s.f, &err);
  if (!sys) die(err);
  return sys;
}

// The ready point of a one-shot workload: System, policies and an empty
// graph exist. Returns setup_s measured from the parent's launch stamp.
double setUp(const Spec& s, std::unique_ptr<ioa::System>* sysOut,
             Clock::time_point mainEntry) {
  auto sys = buildSystem(s);
  {
    auto sym = analysis::SymmetryPolicy::forSystem(*sys, s.symmetry);
    auto por = analysis::PorPolicy::forSystem(*sys, s.por);
    analysis::StateGraph g(*sys, sym, por);
    (void)g;
  }
  const double setup =
      s.launchNs >= 0 ? static_cast<double>(nowNs() - s.launchNs) / 1e9
                      : secondsSince(mainEntry);
  *sysOut = std::move(sys);
  return setup;
}

const char* verdictName(analysis::AdversaryReport::Verdict v) {
  switch (v) {
    case analysis::AdversaryReport::Verdict::SafetyViolation:
      return "safety_violation";
    case analysis::AdversaryReport::Verdict::TerminationViolation:
      return "termination_violation";
    case analysis::AdversaryReport::Verdict::Inconclusive:
      return "inconclusive";
  }
  return "?";
}

// Replays `exec` from the initial configuration through ioa::System: every
// environment input (init, fail) is injected, every other action must be
// the action some task enables in the current state. Also checks that the
// failed set is exactly `failures` and that no process outside it decides.
// Returns "" when the witness is genuine, else the first problem.
std::string replayWitness(const ioa::System& sys, const ioa::Execution& exec,
                          const std::set<int>& failures) {
  ioa::SystemState s = sys.initialState();
  std::set<int> failed;
  std::set<int> deciders;
  const auto& tasks = sys.allTasks();
  std::size_t step = 0;
  for (const ioa::Action& a : exec.actions()) {
    ++step;
    if (a.kind == ioa::ActionKind::EnvInit || a.kind == ioa::ActionKind::Fail) {
      if (a.kind == ioa::ActionKind::Fail) failed.insert(a.endpoint);
      sys.applyInPlace(s, a);
      continue;
    }
    bool enabled = false;
    for (const ioa::TaskId& t : tasks) {
      const std::optional<ioa::Action> e = sys.enabled(s, t);
      if (e && *e == a) {
        enabled = true;
        break;
      }
    }
    if (!enabled) {
      return "step " + std::to_string(step) + " (" + a.str() +
             ") is not enabled by any task";
    }
    if (a.kind == ioa::ActionKind::EnvDecide && ioa::decisionValue(a)) {
      deciders.insert(a.endpoint);
    }
    sys.applyInPlace(s, a);
  }
  if (failed != failures) return "witness fails a different process set";
  for (int i : deciders) {
    if (!failures.count(i)) {
      return "correct process P" + std::to_string(i) + " decides";
    }
  }
  return "";
}

std::string valencesJson(const analysis::AdversaryReport& r) {
  std::string out = "[";
  for (const auto& init : r.initializations) {
    if (out.size() > 1) out += ",";
    out += serve::quoteJson(analysis::valenceName(init.valence));
  }
  return out + "]";
}

std::string intSetJson(const std::set<int>& xs) {
  std::string out = "[";
  for (int x : xs) out += (out.size() > 1 ? "," : "") + std::to_string(x);
  return out + "]";
}

void reportFields(JsonOut& j, const ioa::System& sys,
                  const analysis::AdversaryReport& r) {
  j.str("verdict", verdictName(r.verdict))
      .str("summary", r.summary())
      .raw("valences", valencesJson(r))
      .integer("states", r.statesExplored)
      .integer("witness_actions", r.witness.size())
      .raw("witness_failures", intSetJson(r.witnessFailures))
      .str("witness_error", replayWitness(sys, r.witness, r.witnessFailures));
}

// -- Staged replay ---------------------------------------------------------

// In-memory spans, written out with the result. Times are seconds since
// the process's launch stamp (or main() entry without one).
class Spans {
 public:
  explicit Spans(std::int64_t originNs) : originNs_(originNs) {}

  int begin(const std::string& name, int parent) {
    spans_.push_back({name, parent, now(), -1.0});
    return static_cast<int>(spans_.size()) - 1;
  }
  // Closes span `id` and returns its duration in seconds.
  double end(int id) {
    spans_[id].end = now();
    return spans_[id].end - spans_[id].start;
  }
  std::string json() const {
    std::string out = "[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      JsonOut j;
      j.str("name", s.name).num("start", s.start).num("end", s.end);
      if (s.parent >= 0) {
        j.integer("parent", static_cast<std::uint64_t>(s.parent));
      }
      out += (i ? "," : "") + j.done();
    }
    return out + "]";
  }

 private:
  struct Span {
    std::string name;
    int parent;
    double start, end;
  };
  double now() const {
    return static_cast<double>(nowNs() - originNs_) / 1e9;
  }
  std::int64_t originNs_;
  std::vector<Span> spans_;
};

// Runs `fn` inside a span named `name` and returns its duration.
template <typename Fn>
double timed(Spans& spans, const std::string& name, int parent, Fn&& fn) {
  const int id = spans.begin(name, parent);
  fn();
  return spans.end(id);
}

struct Policies {
  std::shared_ptr<const analysis::SymmetryPolicy> sym;
  std::shared_ptr<const analysis::PorPolicy> por;
};

Policies makePolicies(const ioa::System& sys, const Spec& s) {
  return {analysis::SymmetryPolicy::forSystem(sys, s.symmetry),
          analysis::PorPolicy::forSystem(sys, s.por)};
}

// The adversary's node-local safety predicate (agreement among recorded
// decisions, validity against recorded inputs), restated over the public
// process-state accessor. Returns true when the node violates safety.
bool unsafe(const ioa::System& sys, const ioa::SystemState& s) {
  std::vector<util::Value> inputs;
  const util::Value* first = nullptr;
  for (int i = 0; i < sys.processCount(); ++i) {
    const auto& ps =
        processes::ProcessBase::stateOf(s.part(sys.slotForProcess(i)));
    if (!ps.input.isNil()) inputs.push_back(ps.input);
  }
  for (int i = 0; i < sys.processCount(); ++i) {
    const auto& ps =
        processes::ProcessBase::stateOf(s.part(sys.slotForProcess(i)));
    if (ps.decision.isNil()) continue;
    bool valid = false;
    for (const util::Value& in : inputs) valid = valid || in == ps.decision;
    if (!valid) return true;
    if (first && !(*first == ps.decision)) return true;
    if (!first) first = &ps.decision;
  }
  return false;
}

// Expands every alpha_j region with exploreReachable at `threads` on a
// fresh graph. Returns the expand time; fills steals and install wait.
struct ExpandResult {
  double seconds = 0;
  std::uint64_t steals = 0;
  double installWaitS = 0;
};

ExpandResult expandAll(Spans& spans, int parent, const std::string& name,
                       analysis::StateGraph& g, const ioa::System& sys,
                       unsigned threads, std::vector<analysis::NodeId>* roots) {
  analysis::ExplorationPolicy policy;
  policy.threads = threads;
  ExpandResult r;
  r.seconds = timed(spans, name, parent, [&] {
    for (int j = 0; j <= sys.processCount(); ++j) {
      const analysis::NodeId root =
          g.intern(analysis::canonicalInitialization(sys, j));
      if (roots) roots->push_back(root);
      const analysis::ExploreStats st =
          analysis::exploreReachable(g, root, policy);
      for (const auto& w : st.perWorker) r.steals += w.steals;
      r.installWaitS += static_cast<double>(st.pipeline.installWaitNs) / 1e9;
    }
  });
  return r;
}

// Per-state microcosts over an evenly spaced sample of the expanded graph:
// successor generation, from-scratch hashing, orbit canonicalization of the
// raw successors, ample decisions and interning into a fresh graph.
void sampleLayers(Spans& spans, int parent, const ioa::System& sys,
                  const analysis::StateGraph& g, const Policies& pol,
                  JsonOut& layers) {
  constexpr std::size_t kSampleStates = 2000;
  constexpr std::size_t kMaxProbes = 20000;
  std::vector<const ioa::SystemState*> sample;
  const std::size_t step = std::max<std::size_t>(1, g.size() / kSampleStates);
  for (std::size_t id = 0; id < g.size(); id += step) {
    sample.push_back(&g.state(static_cast<analysis::NodeId>(id)));
  }
  const double count = static_cast<double>(sample.size());
  const auto& tasks = sys.allTasks();

  std::vector<ioa::SystemState> probes;
  const double succgen = timed(spans, "ioa.succgen", parent, [&] {
    for (const ioa::SystemState* s : sample) {
      for (const ioa::TaskId& t : tasks) {
        if (auto a = sys.enabled(*s, t)) {
          ioa::SystemState next = sys.apply(*s, *a);
          if (probes.size() < kMaxProbes) probes.push_back(std::move(next));
        }
      }
    }
  });
  layers.num("ioa.succgen_ns_per_state", succgen * 1e9 / count);

  std::size_t acc = 0;
  const double hash = timed(spans, "ioa.hash", parent, [&] {
    for (const ioa::SystemState* s : sample) acc ^= s->fullRehash();
  });
  layers.num("ioa.hash_ns_per_state", hash * 1e9 / count);

  std::uint64_t collapsed = 0;
  const double canon = timed(spans, "symmetry.canonicalize", parent, [&] {
    for (const ioa::SystemState& p : probes) {
      if (pol.sym->canonicalize(p)) ++collapsed;
    }
  });
  layers.num("symmetry.canon_ns_per_probe",
             probes.empty() ? 0.0
                            : canon * 1e9 / static_cast<double>(probes.size()));

  std::vector<std::vector<std::optional<ioa::Action>>> enabled(sample.size());
  for (std::size_t k = 0; k < sample.size(); ++k) {
    for (const ioa::TaskId& t : tasks) {
      enabled[k].push_back(sys.enabled(*sample[k], t));
    }
  }
  std::uint64_t ampleBits = 0;
  const double ample = timed(spans, "por.ample", parent, [&] {
    std::vector<const ioa::Action*> ptrs(tasks.size());
    for (const auto& acts : enabled) {
      for (std::size_t t = 0; t < acts.size(); ++t) {
        ptrs[t] = acts[t] ? &*acts[t] : nullptr;
      }
      std::uint64_t en = 0;
      ampleBits ^= pol.por->ampleMask(ptrs, &en);
    }
  });
  layers.num("por.ample_ns_per_state", ample * 1e9 / count);

  const double intern = timed(spans, "state_graph.intern", parent, [&] {
    analysis::StateGraph fresh(sys);
    for (const ioa::SystemState& p : probes) fresh.intern(p);
  });
  layers.num("state_graph.intern_ns_per_state",
             probes.empty() ? 0.0
                            : intern * 1e9 / static_cast<double>(probes.size()));
  // Keeps the timed loops' results observable.
  layers.integer("sample.checksum", (acc ^ ampleBits ^ collapsed) & 0xffff);
}

// The state the gamma run starts from: the witness replayed up to its
// first fail action (the gamma run injects its failures at step 0).
std::optional<ioa::SystemState> gammaStart(const ioa::System& sys,
                                           const ioa::Execution& witness) {
  ioa::SystemState s = sys.initialState();
  for (const ioa::Action& a : witness.actions()) {
    if (a.kind == ioa::ActionKind::Fail) return s;
    sys.applyInPlace(s, a);
  }
  return std::nullopt;
}

// Lemma 8's classification as the adversary performs it: on the graph's
// hook nodes without symmetry, on concrete re-derived extensions with it.
analysis::HookClassification classify(analysis::StateGraph& g,
                                      const analysis::Hook& hook) {
  analysis::SimilarityOptions opts;
  opts.exemptFailureAware = true;
  if (!g.symmetryActive()) return analysis::classifyHook(g, hook, opts);
  const ioa::System& sys = g.system();
  const ioa::SystemState& A = g.state(hook.alpha);
  std::optional<ioa::SystemState> x0, x1, x0p;
  if (auto aE = sys.enabled(A, hook.e)) x0 = sys.apply(A, *aE);
  if (auto aEp = sys.enabled(A, hook.ePrime)) {
    const ioa::SystemState b = sys.apply(A, *aEp);
    if (auto aEAtB = sys.enabled(b, hook.e)) x1 = sys.apply(b, *aEAtB);
  }
  if (x0) {
    if (auto aEp0 = sys.enabled(*x0, hook.ePrime)) x0p = sys.apply(*x0, *aEp0);
  }
  if (!x0 || !x1) return {};
  return analysis::classifyHookStates(sys, *x0, *x1, x0p ? &*x0p : nullptr,
                                      opts);
}

int runStages(const Spec& spec, Clock::time_point mainEntry) {
  JsonOut out;
  JsonOut layers;
  Spans spans(spec.launchNs >= 0
                  ? spec.launchNs
                  : std::chrono::duration_cast<std::chrono::nanoseconds>(
                        mainEntry.time_since_epoch())
                        .count());
  const analysis::AdversaryConfig cfg = adversaryConfig(spec);

  // The untraced certificate of this process: cert_s for the remainders and
  // the witness the gamma replay starts from.
  const int certSpan = spans.begin("cert.untraced", -1);
  std::unique_ptr<ioa::System> refSys = buildSystem(spec);
  const auto t0 = Clock::now();
  const analysis::AdversaryReport ref =
      analysis::analyzeConsensusCandidate(*refSys, cfg);
  const double certS = secondsSince(t0);
  spans.end(certSpan);

  const int root = spans.begin("cert.stages", -1);
  std::unique_ptr<ioa::System> sys;
  layers.num("candidates.build_s", timed(spans, "candidates.build", root, [&] {
               sys = buildSystem(spec);
             }));

  // Stage A: expansion, fixpoint and per-state microcosts on graph G1.
  {
    Policies pol;
    timed(spans, "policies.build.expand_graph", root,
          [&] { pol = makePolicies(*sys, spec); });
    auto g = std::make_unique<analysis::StateGraph>(*sys, pol.sym, pol.por);
    std::vector<analysis::NodeId> roots;
    const ExpandResult ex = expandAll(spans, root, "parallel_explorer.expand",
                                      *g, *sys, spec.threads, &roots);
    const double fixpoint = timed(spans, "valence.fixpoint", root, [&] {
      analysis::ValenceAnalyzer va(*g);
      for (analysis::NodeId r : roots) va.explore(r);
    });
    sampleLayers(spans, root, *sys, *g, pol, layers);
    timed(spans, "state_graph.teardown.expand_graph", root, [&] { g.reset(); });

    // The same roots at the other thread count, for the speedup.
    const unsigned other = spec.threads == 1 ? 4 : 1;
    Policies pol2 = makePolicies(*sys, spec);
    g = std::make_unique<analysis::StateGraph>(*sys, pol2.sym, pol2.por);
    const ExpandResult ex2 =
        expandAll(spans, root, "parallel_explorer.expand_t" +
                                   std::to_string(other),
                  *g, *sys, other, nullptr);
    timed(spans, "state_graph.teardown.speedup_graph", root,
          [&] { g.reset(); });
    const double t1 = spec.threads == 1 ? ex.seconds : ex2.seconds;
    const double t4 = spec.threads == 1 ? ex2.seconds : ex.seconds;

    layers.num("parallel_explorer.expand_s", ex.seconds)
        .num("parallel_explorer.speedup", t1 / t4)
        .num("parallel_explorer.install_wait_s", ex.installWaitS)
        .integer("parallel_explorer.steals", ex.steals)
        .num("valence.fixpoint_s", fixpoint);

    // Stage B: the certificate's own steps, in order, on graph G2.
    double policiesS = 0, constructS = 0, scanS = 0, safetyS = 0, hookS = 0,
           classifyS = 0, gammaS = 0, teardownS = 0;
    Policies p;
    policiesS = timed(spans, "policies.build", root,
                      [&] { p = makePolicies(*sys, spec); });
    std::unique_ptr<analysis::StateGraph> g2;
    constructS = timed(spans, "state_graph.construct", root, [&] {
      g2 = std::make_unique<analysis::StateGraph>(*sys, p.sym, p.por);
    });
    auto va = std::make_unique<analysis::ValenceAnalyzer>(*g2);
    va->setPolicy(cfg.exploration);
    analysis::BivalenceResult biv;
    scanS = timed(spans, "bivalence.scan", root, [&] {
      biv = analysis::findBivalentInitialization(*g2, *va, cfg.exploration);
    });
    std::uint64_t unsafeNodes = 0;
    safetyS = timed(spans, "adversary.safety_scan", root, [&] {
      for (analysis::NodeId id = 0; id < g2->size(); ++id) {
        if (unsafe(*sys, g2->state(id))) ++unsafeNodes;
      }
    });
    if (biv.bivalent) {
      analysis::HookSearchOutcome hs;
      hookS = timed(spans, "hook.search", root, [&] {
        hs = analysis::findHook(*g2, *va, biv.bivalent->node,
                                cfg.hookMaxIterations, cfg.exploration);
      });
      if (hs.hook) {
        classifyS = timed(spans, "similarity.classify", root,
                          [&] { classify(*g2, *hs.hook); });
      }
    }
    if (!ref.witnessFailures.empty()) {
      if (auto start = gammaStart(*refSys, ref.witness)) {
        sim::RunConfig rc;
        rc.startState = std::move(*start);
        rc.maxSteps = cfg.gammaMaxSteps;
        rc.detectLivelock = true;
        rc.stopWhenAllDecided = false;
        const std::set<int> J = ref.witnessFailures;
        for (int i : J) rc.failures.emplace_back(0, i);
        rc.stop = [&J](const ioa::SystemState&, const ioa::Execution& exec) {
          if (exec.empty()) return false;
          const ioa::Action& a = exec.actions().back();
          return a.kind == ioa::ActionKind::EnvDecide &&
                 J.count(a.endpoint) == 0 && ioa::decisionValue(a);
        };
        gammaS = timed(spans, "runner.gamma", root,
                       [&] { (void)sim::run(*refSys, rc); });
      }
    }
    teardownS = timed(spans, "state_graph.teardown", root, [&] {
      va.reset();
      g2.reset();
    });

    const double stages = policiesS + constructS + scanS + safetyS + hookS +
                          classifyS + gammaS + teardownS;
    layers.num("policies.build_s", policiesS)
        .num("bivalence.scan_s", scanS)
        .num("bivalence.unattributed_s", scanS - ex.seconds - fixpoint)
        .num("adversary.safety_scan_s", safetyS)
        .num("hook.search_s", hookS)
        .num("similarity.classify_s", classifyS)
        .num("runner.gamma_s", gammaS)
        .num("state_graph.teardown_s", teardownS)
        .num("cert.unattributed_s", certS - stages)
        .num("symmetry.collapse_ratio",
             p.sym->statesRaw() == 0
                 ? 0.0
                 : static_cast<double>(p.sym->orbitsCollapsed()) /
                       static_cast<double>(p.sym->statesRaw()))
        .num("por.skip_ratio",
             p.por->enabledSum() == 0
                 ? 0.0
                 : static_cast<double>(p.por->tasksSkipped()) /
                       static_cast<double>(p.por->enabledSum()))
        .integer("stages.unsafe_nodes", unsafeNodes);
  }
  spans.end(root);

  out.num("cert_s", certS).str("summary", ref.summary())
      .integer("states", ref.statesExplored)
      .raw("layers", layers.done())
      .raw("spans", spans.json());
  std::printf("%s\n", out.done().c_str());
  return 0;
}

// The calibration kernel. On a shared host the speed of this process drifts
// by a fifth or more over minutes, and page faults and plain integer work
// drift together with a certificate's time (which does both: relay n=7
// faults in ~200 MB). Neither alone tracked it as well as the two together.
double calibrate() {
  constexpr std::size_t kBytes = std::size_t{32} << 20;
  constexpr std::size_t kPage = 4096;
  // About equal time in the two halves (~15 ms each on a 4-vCPU Xeon VM).
  constexpr std::uint64_t kSteps = 6'000'000;
  const auto t0 = Clock::now();
  {
    std::unique_ptr<char[]> fresh(new char[kBytes]);
    volatile char* pages = fresh.get();
    for (std::size_t i = 0; i < kBytes; i += kPage) {
      pages[i] = static_cast<char>(i);
    }
  }
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (std::uint64_t k = 0; k < kSteps; ++k) {
    x ^= x >> 29;
    x *= 0xbf58476d1ce4e5b9ull;
    x += k;
  }
  volatile std::uint64_t keep = x;
  (void)keep;
  return secondsSince(t0);
}

}  // namespace

int main(int argc, char** argv) {
  const auto mainEntry = Clock::now();
  const Spec spec = parseArgs(argc, argv);
  if (spec.mode == "calibrate") {
    JsonOut j;
    j.num("calib_s", calibrate());
    std::printf("%s\n", j.done().c_str());
    return 0;
  }
  if (!serve::isKnownCandidate(spec.candidate)) {
    die("unknown candidate '" + spec.candidate + "'");
  }
  try {
    if (spec.mode == "stages") return runStages(spec, mainEntry);

    std::unique_ptr<ioa::System> sys;
    const double setupS = setUp(spec, &sys, mainEntry);
    JsonOut j;
    j.num("setup_s", setupS);
    if (spec.mode == "setup") {
      std::printf("%s\n", j.done().c_str());
      return 0;
    }
    const bool traced = spec.mode == "traced-cert";

    obs::Registry registry;
    const analysis::AdversaryConfig cfg =
        adversaryConfig(spec, traced ? &registry : nullptr);
    const auto t0 = Clock::now();
    const analysis::AdversaryReport report =
        analysis::analyzeConsensusCandidate(*sys, cfg);
    j.num("cert_s", secondsSince(t0));
    reportFields(j, *sys, report);
    if (traced) {
      JsonOut counters;
      for (const auto& [name, v] : registry.counters()) {
        counters.integer(name, v);
      }
      for (const auto& [name, t] : registry.timers()) {
        counters.num(name + ".s", static_cast<double>(t.wallNs) / 1e9);
      }
      j.raw("registry", counters.done());
    }
    std::printf("%s\n", j.done().c_str());
    return 0;
  } catch (const std::exception& e) {
    die(std::string("analysis threw: ") + e.what());
  }
}
