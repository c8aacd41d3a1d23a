// boosting_served: resident analysis service.
//
// Accepts candidate-analysis jobs over line-delimited JSON (one flat
// object per line) on stdio and/or local TCP / unix-domain listeners, runs
// them on a cooperative tick scheduler with bounded concurrency, and
// caches per-service-type substructure (built system, action pool, slot
// canon table, transition memo) across jobs so repeat analyses start warm.
// There is no timer: the server sleeps until a client writes or a job
// finishes or reports progress.
// Verdict text is byte-identical to boosting_analyze for the same
// parameters. Protocol grammar and examples: src/serve/server.h and
// DESIGN.md "Analysis service".
//
// Usage:
//   boosting_served [--listen stdio|tcp:[HOST:]PORT|unix:PATH]...
//                   [--max-concurrent N] [--cache-contexts N]
//                   [--max-jobs N] [--metrics-json FILE] [--trace FILE]
//
// Defaults: one stdio listener, one worker, 8 cached contexts. A session
// is as simple as
//   printf '{"op":"submit",...}\n' | boosting_served
// which runs the job, prints ack + result lines, and exits on EOF
// (implicit drain-shutdown).
#include <cstdio>
#include <cstring>

#include "obs/registry.h"
#include "obs/trace.h"
#include "serve/candidates.h"
#include "serve/server.h"

using namespace boosting;
using serve::parseIntOrDie;

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--listen stdio|tcp:[HOST:]PORT|unix:PATH]... "
               "[--max-concurrent N] [--cache-contexts N] [--max-jobs N] "
               "[--metrics-json FILE] [--trace FILE]\n",
               argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  serve::ServerConfig cfg;
  std::string tracePath;
  for (int i = 1; i < argc; ++i) {
    auto needArg = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires an argument\n", flag);
        usage(argv[0]);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--listen") == 0) {
      serve::ListenSpec spec;
      std::string err;
      if (!serve::parseListenSpec(needArg("--listen"), &spec, &err)) {
        std::fprintf(stderr, "%s\n", err.c_str());
        return 2;
      }
      cfg.listens.push_back(spec);
    } else if (std::strcmp(argv[i], "--max-concurrent") == 0) {
      // Floor of 1: a server with zero workers can never finish a job.
      cfg.maxConcurrent = static_cast<unsigned>(parseIntOrDie(
          "--max-concurrent", needArg("--max-concurrent"), 1, 64));
    } else if (std::strcmp(argv[i], "--cache-contexts") == 0) {
      // 0 is legal: it disables cross-job caching entirely.
      cfg.cacheContexts = static_cast<std::size_t>(parseIntOrDie(
          "--cache-contexts", needArg("--cache-contexts"), 0, 256));
    } else if (std::strcmp(argv[i], "--max-jobs") == 0) {
      // Floor of 1: a zero-job server would exit before serving anything;
      // omit the flag for an unlimited server.
      cfg.maxJobs = static_cast<std::uint64_t>(parseIntOrDie(
          "--max-jobs", needArg("--max-jobs"), 1, 1000000000L));
    } else if (std::strcmp(argv[i], "--metrics-json") == 0) {
      cfg.metricsJsonPath = needArg("--metrics-json");
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      tracePath = needArg("--trace");
    } else {
      usage(argv[0]);
    }
  }
  if (cfg.listens.empty()) {
    cfg.listens.push_back(serve::ListenSpec{});  // default: stdio
  }

  obs::Registry registry;
  cfg.metrics = &registry;
  if (!tracePath.empty()) {
    std::string err;
    auto tw = obs::TraceWriter::open(tracePath, &err);
    if (!tw) {
      std::fprintf(stderr, "--trace: %s\n", err.c_str());
      return 2;
    }
    registry.setTrace(std::move(tw));
  }
  return serve::runServer(cfg);
}
