// Machine-readable benchmark output shared by the exploration benches.
//
// Google-benchmark's own --benchmark_out JSON nests results under context
// and formats counters per time-unit; CI and EXPERIMENTS.md want a flat,
// schema-stable record instead. JsonTeeReporter keeps the human-readable
// console output and additionally captures every per-iteration run plus
// mean/median aggregates (name -- suffixed _mean/_median for aggregates --
// real/cpu nanoseconds per iteration, iteration count, and all user
// counters, which the library has already finalized -- rates are divided by
// elapsed time before reporters see them), then writeBenchJson() dumps them
// as {"benchmarks": [...]}.
//
// Usage (replaces benchmark_main):
//   int main(int argc, char** argv) {
//     return boosting::benchjson::runBenchmarks(argc, argv,
//                                               "BENCH_state_explore.json");
//   }
// The output path can be overridden with the BENCH_JSON environment
// variable (used by CI to drop artifacts in the workspace root).
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

namespace boosting::benchjson {

struct RunRecord {
  std::string name;
  double realNsPerIter = 0.0;
  double cpuNsPerIter = 0.0;
  double iterations = 0.0;
  std::vector<std::pair<std::string, double>> counters;
};

class JsonTeeReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& r : reports) {
      if (r.error_occurred) continue;
      // Per-iteration runs and mean/median aggregates share a schema
      // (aggregates keep per-repetition accumulated time and iteration
      // counts); dispersion aggregates (stddev, cv) don't, so skip them.
      if (r.run_type == Run::RT_Aggregate &&
          r.aggregate_name != "mean" && r.aggregate_name != "median") {
        continue;
      }
      RunRecord rec;
      rec.name = r.benchmark_name();
      const double iters = static_cast<double>(r.iterations);
      rec.iterations = iters;
      if (iters > 0) {
        rec.realNsPerIter = r.real_accumulated_time * 1e9 / iters;
        rec.cpuNsPerIter = r.cpu_accumulated_time * 1e9 / iters;
      }
      for (const auto& [name, counter] : r.counters) {
        rec.counters.emplace_back(name, counter.value);
      }
      records.push_back(std::move(rec));
    }
    ConsoleReporter::ReportRuns(reports);
  }

  std::vector<RunRecord> records;
};

// Minimal JSON string escape: bench names only contain [-/_:A-Za-z0-9],
// but stay defensive about quotes and backslashes.
inline std::string jsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

inline bool writeBenchJson(const std::string& path,
                           const std::vector<RunRecord>& records) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "bench_json: cannot open %s for writing\n",
                 path.c_str());
    return false;
  }
  std::fprintf(f, "{\n  \"benchmarks\": [\n");
  for (std::size_t i = 0; i < records.size(); ++i) {
    const RunRecord& r = records[i];
    std::fprintf(f,
                 "    {\n"
                 "      \"name\": \"%s\",\n"
                 "      \"iterations\": %.0f,\n"
                 "      \"real_ns_per_iter\": %.3f,\n"
                 "      \"cpu_ns_per_iter\": %.3f",
                 jsonEscape(r.name).c_str(), r.iterations, r.realNsPerIter,
                 r.cpuNsPerIter);
    for (const auto& [name, value] : r.counters) {
      std::fprintf(f, ",\n      \"%s\": %.6g", jsonEscape(name).c_str(),
                   value);
    }
    std::fprintf(f, "\n    }%s\n", i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::fprintf(stderr, "bench_json: wrote %zu runs to %s\n", records.size(),
               path.c_str());
  return true;
}

inline int runBenchmarks(int argc, char** argv, const char* defaultJsonPath) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  JsonTeeReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  const char* env = std::getenv("BENCH_JSON");
  const std::string path = (env && *env) ? env : defaultJsonPath;
  const bool ok = writeBenchJson(path, reporter.records);
  benchmark::Shutdown();
  return ok ? 0 : 1;
}

}  // namespace boosting::benchjson
