// boosting_analyze: command-line front end for the impossibility engine.
//
// Builds one of the repository's candidate "boosting" systems, runs the
// Theorem-2/9/10 adversary against its claimed resilience, and prints the
// verdict together with the proof artifacts; optionally writes the witness
// execution (replayable text format) and a valence-coloured Graphviz view
// of G(C) with the hook highlighted.
//
// Usage:
//   boosting_analyze --candidate relay --n 3 --f 1 [--claim 2]
//                    [--symmetry auto|on|off] [--por auto|on|off]
//                    [--brute] [--witness trace.txt]
//                    [--dot graph.dot] [--metrics-json FILE]
//                    [--trace FILE] [--progress] [--replay FILE]
//
// --symmetry auto|on|off controls orbit canonicalization (symmetry
// reduction, see analysis/symmetry.h). `auto` (the default) and `off`
// explore the exact graph: POR alone is faster on every measured
// candidate. `on` is an opt-in memory mode: candidates whose processes are
// interchangeable and id-free (relay) are explored up to process
// permutation, shrinking G(C) by up to n!, and the run reports why
// reduction stayed off when it could not be applied. The verdict is the
// same either way; state counts and witness process names may differ
// (quotient witnesses are lifted back to concrete executions).
//
// --por auto|on|off controls ample-set partial-order reduction (see
// analysis/por.h), stacked on top of any symmetry quotient: at each
// expanded configuration only an ample subset of the enabled tasks is
// followed, collapsing commuting diamonds of independent steps. `auto`
// (the default) enables it exactly when every component declares a
// canonical task structure; `on` additionally reports why reduction stayed
// off; `off` forces full expansion. Verdicts and witness replayability are
// unchanged; state counts shrink further.
//
// Observability:
//   --metrics-json FILE   write phase timings, counters and derived rates
//                         (states/sec, cache hit rate) as one JSON document
//   --trace FILE          append structured JSON-lines events (one object
//                         per line) as the pipeline runs
//   --progress            print a rate-limited progress ticker to stderr
//
// --replay FILE parses a previously written witness trace and reports its
// shape; malformed traces are rejected with a line/column diagnostic.
//
// Candidates:
//   relay      n processes over one f-resilient consensus object
//   bridge     proposers -> f-resilient object -> register -> spin readers
//   tob        consensus from an f-resilient totally ordered broadcast
//   flooding   message-passing flooding consensus over an f-resilient fabric
//   single-fd  rotating coordinator over ONE f-resilient all-process
//              perfect failure detector (the Theorem-10 setting)
#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "analysis/adversary.h"
#include "analysis/dot_export.h"
#include "analysis/metrics.h"
#include "obs/progress.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "serve/candidates.h"
#include "sim/trace_io.h"

using namespace boosting;

namespace {

struct Options {
  std::string candidate = "relay";
  int n = 2;
  int f = 0;
  int claim = -1;  // default: f + 1
  analysis::SymmetryMode symmetry = analysis::SymmetryMode::Auto;
  analysis::PorMode por = analysis::PorMode::Auto;
  bool brute = false;
  bool progress = false;
  std::string witnessPath;
  std::string dotPath;
  std::string metricsJsonPath;
  std::string tracePath;
  std::string replayPath;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --candidate relay|bridge|tob|flooding|single-fd "
               "--n N --f F [--claim C] "
               "[--symmetry auto|on|off] [--por auto|on|off] "
               "[--brute] "
               "[--witness FILE] [--dot FILE] [--metrics-json FILE] "
               "[--trace FILE] [--progress] [--replay FILE]\n",
               argv0);
  std::exit(2);
}

// Strict integer option parsing: the full token must be a decimal integer
// within [lo, hi]. Anything else -- "banana", "2x", empty, out of range --
// names the offending flag and value on stderr and exits non-zero, instead
// of the old atoi behaviour of silently reading 0.
long parseIntOrDie(const char* flag, const char* text, long lo, long hi) {
  long value = 0;
  const char* end = text + std::strlen(text);
  auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc() || ptr != end || text == end) {
    std::fprintf(stderr, "%s: not an integer: '%s'\n", flag, text);
    std::exit(2);
  }
  if (value < lo || value > hi) {
    std::fprintf(stderr, "%s: value %ld out of range [%ld, %ld]\n", flag,
                 value, lo, hi);
    std::exit(2);
  }
  return value;
}

// Construction itself lives in serve/candidates.cpp, shared with
// boosting_served: both front ends must build byte-identical systems for
// the served verdicts to match the CLI's.
std::unique_ptr<ioa::System> buildCandidate(const Options& opt) {
  std::string error;
  auto sys = serve::buildCandidateSystem(opt.candidate, opt.n, opt.f, &error);
  if (!sys) {
    std::fprintf(stderr, "%s\n", error.c_str());
    std::exit(2);
  }
  return sys;
}

// --replay: load a witness trace and report its shape, distinguishing an
// empty (but well-formed) trace from a parse error with its diagnostic.
int replayTrace(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "--replay: cannot open '%s'\n", path.c_str());
    return 2;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const auto parsed = sim::parseExecutionDetailed(buf.str());
  if (!parsed.ok()) {
    std::fprintf(stderr, "--replay: %s: parse error at %s\n", path.c_str(),
                 parsed.error.str().c_str());
    return 2;
  }
  const ioa::Execution& exec = *parsed.execution;
  if (exec.empty()) {
    std::printf("replay: %s parsed cleanly: 0 actions (empty trace)\n",
                path.c_str());
    return 0;
  }
  std::size_t fails = 0, decides = 0;
  for (const ioa::Action& a : exec.actions()) {
    if (a.kind == ioa::ActionKind::Fail) ++fails;
    if (a.kind == ioa::ActionKind::EnvDecide) ++decides;
  }
  std::printf("replay: %s parsed cleanly: %zu actions (%zu failures, %zu "
              "decisions)\n",
              path.c_str(), exec.size(), fails, decides);
  return 0;
}

// Derived metrics computed from whatever the run flushed: overall
// states/sec, the combined transition-memo hit rate, and phase wall times
// in seconds.
void deriveSummaryMetrics(obs::Registry& reg) {
  const auto adversary = reg.timer("phase.adversary");
  const double wallS = static_cast<double>(adversary.wallNs) / 1e9;
  if (wallS > 0) {
    reg.derive("wall_s", wallS);
    reg.derive("states_per_sec",
               static_cast<double>(reg.value("graph.states_discovered")) /
                   wallS);
  }
  const std::uint64_t hits =
      reg.value("cache.enabled_hits") + reg.value("cache.apply_hits");
  const std::uint64_t lookups =
      reg.value("cache.enabled_lookups") + reg.value("cache.apply_lookups");
  if (lookups > 0) {
    reg.derive("cache_hit_rate",
               static_cast<double>(hits) / static_cast<double>(lookups));
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    auto needArg = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires an argument\n", flag);
        usage(argv[0]);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--candidate") == 0) {
      opt.candidate = needArg("--candidate");
    } else if (std::strcmp(argv[i], "--n") == 0) {
      opt.n = static_cast<int>(parseIntOrDie("--n", needArg("--n"), 2, 20));
    } else if (std::strcmp(argv[i], "--f") == 0) {
      opt.f = static_cast<int>(parseIntOrDie("--f", needArg("--f"), 0, 19));
    } else if (std::strcmp(argv[i], "--claim") == 0) {
      opt.claim = static_cast<int>(
          parseIntOrDie("--claim", needArg("--claim"), 1, 19));
    } else if (std::strcmp(argv[i], "--symmetry") == 0) {
      const char* v = needArg("--symmetry");
      if (std::strcmp(v, "auto") == 0) {
        opt.symmetry = analysis::SymmetryMode::Auto;
      } else if (std::strcmp(v, "on") == 0) {
        opt.symmetry = analysis::SymmetryMode::On;
      } else if (std::strcmp(v, "off") == 0) {
        opt.symmetry = analysis::SymmetryMode::Off;
      } else {
        std::fprintf(stderr, "--symmetry: expected auto|on|off, got '%s'\n",
                     v);
        std::exit(2);
      }
    } else if (std::strcmp(argv[i], "--por") == 0) {
      const char* v = needArg("--por");
      if (std::strcmp(v, "auto") == 0) {
        opt.por = analysis::PorMode::Auto;
      } else if (std::strcmp(v, "on") == 0) {
        opt.por = analysis::PorMode::On;
      } else if (std::strcmp(v, "off") == 0) {
        opt.por = analysis::PorMode::Off;
      } else {
        std::fprintf(stderr, "--por: expected auto|on|off, got '%s'\n", v);
        std::exit(2);
      }
    } else if (std::strcmp(argv[i], "--brute") == 0) {
      opt.brute = true;
    } else if (std::strcmp(argv[i], "--progress") == 0) {
      opt.progress = true;
    } else if (std::strcmp(argv[i], "--witness") == 0) {
      opt.witnessPath = needArg("--witness");
    } else if (std::strcmp(argv[i], "--dot") == 0) {
      opt.dotPath = needArg("--dot");
    } else if (std::strcmp(argv[i], "--metrics-json") == 0) {
      opt.metricsJsonPath = needArg("--metrics-json");
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      opt.tracePath = needArg("--trace");
    } else if (std::strcmp(argv[i], "--replay") == 0) {
      opt.replayPath = needArg("--replay");
    } else {
      usage(argv[0]);
    }
  }

  if (!opt.replayPath.empty()) return replayTrace(opt.replayPath);

  // Cross-field domain validation, naming the offending flag.
  if (opt.f >= opt.n) {
    std::fprintf(stderr,
                 "--f: service resilience %d must be smaller than --n %d\n",
                 opt.f, opt.n);
    return 2;
  }
  if (opt.claim < 0) opt.claim = opt.f + 1;
  if (opt.claim >= opt.n) {
    std::fprintf(stderr,
                 "--claim: claimed failures %d must be smaller than --n %d "
                 "(the theorems assume f+1 <= n-1)\n",
                 opt.claim, opt.n);
    return 2;
  }
  // Observability: one registry for the whole invocation. A null registry
  // pointer downstream disables all collection, so only wire it when some
  // output was requested.
  obs::Registry registry;
  obs::ProgressTicker ticker;
  const bool wantObs = !opt.metricsJsonPath.empty() ||
                       !opt.tracePath.empty() || opt.progress;
  obs::Registry* reg = wantObs ? &registry : nullptr;
  if (!opt.tracePath.empty()) {
    std::string err;
    auto tw = obs::TraceWriter::open(opt.tracePath, &err);
    if (!tw) {
      std::fprintf(stderr, "--trace: %s\n", err.c_str());
      return 2;
    }
    registry.setTrace(std::move(tw));
  }
  if (opt.progress) {
    registry.setProgress([&ticker](std::string_view label,
                                   std::uint64_t value) {
      ticker(label, value);
    });
  }

  auto sys = buildCandidate(opt);
  std::printf("candidate '%s': n=%d, service resilience f=%d, claimed to "
              "tolerate %d failures\n",
              opt.candidate.c_str(), opt.n, opt.f, opt.claim);

  const ioa::StatePerfCounters perfBefore = ioa::statePerfSnapshot();

  if (opt.brute) {
    auto report = analysis::searchTerminationCounterexample(*sys, opt.claim);
    if (!opt.metricsJsonPath.empty()) {
      deriveSummaryMetrics(registry);
      registry.writeMetricsJson(opt.metricsJsonPath, "boosting_analyze");
    }
    if (report.counterexampleFound) {
      std::printf("BRUTE-FORCE REFUTED: livelock with failures {");
      bool first = true;
      for (int i : report.failureSet) {
        std::printf("%s%d", first ? "" : ",", i);
        first = false;
      }
      std::printf("} from the %d-ones initialization (%zu runs tried)\n",
                  report.onesPrefix, report.runsTried);
      if (!opt.witnessPath.empty()) {
        std::ofstream(opt.witnessPath) << sim::renderExecution(report.witness);
        std::printf("witness written to %s\n", opt.witnessPath.c_str());
      }
      return 0;
    }
    std::printf("no counterexample found: all %zu runs decided\n",
                report.runsTried);
    return 1;
  }

  analysis::AdversaryConfig cfg;
  cfg.claimedFailures = opt.claim;
  cfg.exemptFailureAware = true;
  cfg.exploration.metrics = reg;
  cfg.symmetry = opt.symmetry;
  cfg.por = opt.por;
  auto report = analysis::analyzeConsensusCandidate(*sys, cfg);

  if (reg) {
    analysis::flushStatePerfDelta(reg, perfBefore, ioa::statePerfSnapshot());
  }
  if (!opt.metricsJsonPath.empty()) {
    deriveSummaryMetrics(registry);
    if (!registry.writeMetricsJson(opt.metricsJsonPath, "boosting_analyze")) {
      return 2;
    }
    std::printf("metrics written to %s\n", opt.metricsJsonPath.c_str());
  }

  std::printf("\ninitializations (Lemma 4):\n");
  for (const auto& init : report.initializations) {
    std::printf("  alpha_%d: %s\n", init.onesPrefix,
                analysis::valenceName(init.valence));
  }
  if (report.hook) {
    std::printf("hook (Lemma 5): alpha=n%u, e=%s, e'=%s -> %s / %s\n",
                report.hook->alpha, report.hook->e.str().c_str(),
                report.hook->ePrime.str().c_str(),
                analysis::valenceName(report.hook->alpha0Valence),
                analysis::valenceName(report.hook->alpha1Valence));
    std::printf("classification (Lemma 8): %s\n",
                report.classification.narrative.c_str());
  }
  std::printf("\n%s\n", report.summary().c_str());
  std::printf("states explored: %zu; witness: %zu actions\n",
              report.statesExplored, report.witness.size());
  if (report.symmetryReduced) {
    std::printf("symmetry: quotient active -- %llu raw states probed, "
                "%llu orbit collapses, %zu canonical states\n",
                static_cast<unsigned long long>(report.symmetryStatesRaw),
                static_cast<unsigned long long>(
                    report.symmetryOrbitsCollapsed),
                report.statesExplored);
  } else if (opt.symmetry == analysis::SymmetryMode::On) {
    std::printf("symmetry: not applied (%s)\n",
                report.symmetryNote.c_str());
  }
  if (report.porReduced) {
    std::printf("por: ample sets active -- %llu nodes reduced, %llu task "
                "expansions skipped, %llu proviso fallbacks\n",
                static_cast<unsigned long long>(report.porNodesReduced),
                static_cast<unsigned long long>(report.porTasksSkipped),
                static_cast<unsigned long long>(report.porProvisoHits));
  } else if (opt.por == analysis::PorMode::On) {
    std::printf("por: not applied (%s)\n", report.porNote.c_str());
  }

  if (!opt.witnessPath.empty() && !report.witness.empty()) {
    std::ofstream(opt.witnessPath) << sim::renderExecution(report.witness);
    std::printf("witness written to %s\n", opt.witnessPath.c_str());
  }
  if (!opt.dotPath.empty() && report.bivalentInit) {
    // The view re-derives the hook on its own graph under the run's
    // reduction policies. Node ids are that graph's, so the line names the
    // hook the file highlights.
    analysis::StateGraph g(
        *sys, analysis::SymmetryPolicy::forSystem(*sys, opt.symmetry),
        analysis::PorPolicy::forSystem(*sys, opt.por));
    analysis::ValenceAnalyzer va(g);
    analysis::NodeId init = g.intern(analysis::canonicalInitialization(
        *sys, report.bivalentInit->onesPrefix));
    auto outcome = analysis::findHook(g, va, init);
    analysis::DotOptions dotOpts;
    dotOpts.maxNodes = 250;
    dotOpts.highlightHook = outcome.hook;
    std::ofstream(opt.dotPath) << analysis::exportDot(g, va, init, dotOpts);
    if (outcome.hook) {
      std::printf("graph written to %s (hook alpha=n%u)\n",
                  opt.dotPath.c_str(), outcome.hook->alpha);
    } else {
      std::printf("graph written to %s\n", opt.dotPath.c_str());
    }
  }
  return report.verdict == analysis::AdversaryReport::Verdict::Inconclusive
             ? 1
             : 0;
}
