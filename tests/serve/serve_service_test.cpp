// AnalysisService tests: submit-time validation (mirroring the CLI flag
// diagnostics), end-to-end verdict equality with warm-cache reuse,
// priority-ordered completion, and pre-dispatch cancellation.
#include "serve/service.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/registry.h"

namespace boosting::serve {
namespace {

JobSpec relaySpec(const std::string& id) {
  JobSpec spec;
  spec.id = id;
  spec.candidate = "relay";
  spec.n = 3;
  spec.f = 1;
  return spec;
}

std::string rejectionFor(AnalysisService& svc, const JobSpec& spec) {
  const auto err = svc.submit(spec, [](const JobResult&) {});
  EXPECT_TRUE(err.has_value()) << "spec '" << spec.id << "' was accepted";
  return err.value_or("");
}

TEST(ServeService, RejectsInvalidSpecsWithCliStyleDiagnostics) {
  AnalysisService svc(AnalysisService::Config{});

  JobSpec spec = relaySpec("");
  EXPECT_NE(rejectionFor(svc, spec).find("id"), std::string::npos);

  spec = relaySpec("j");
  spec.candidate = "banana";
  EXPECT_NE(rejectionFor(svc, spec).find("unknown candidate"),
            std::string::npos);

  // Diagnostics lead with the wire field name, mirroring the CLI's
  // flag-first shape.
  spec = relaySpec("j");
  spec.n = 1;
  EXPECT_NE(rejectionFor(svc, spec).find("n: value 1 out of range"),
            std::string::npos);

  spec = relaySpec("j");
  spec.f = 3;  // f must be < n
  EXPECT_NE(rejectionFor(svc, spec).find("f: service resilience"),
            std::string::npos);

  spec = relaySpec("j");
  spec.claim = 3;  // claim must be < n
  EXPECT_NE(rejectionFor(svc, spec).find("claim: claimed failures"),
            std::string::npos);

  // Duplicate LIVE id: the first submission is still queued (no tick yet).
  spec = relaySpec("dup");
  EXPECT_FALSE(svc.submit(spec, [](const JobResult&) {}).has_value());
  EXPECT_NE(rejectionFor(svc, spec).find("dup"), std::string::npos);
  svc.cancelAll();
  svc.drain();
}

TEST(ServeService, WarmJobMatchesColdJobByteForByte) {
  obs::Registry registry;
  AnalysisService::Config cfg;
  cfg.metrics = &registry;
  AnalysisService svc(cfg);
  std::vector<JobResult> results;
  for (const char* id : {"cold", "warm"}) {
    auto spec = relaySpec(id);
    spec.wantWitness = true;
    ASSERT_FALSE(
        svc.submit(spec, [&](const JobResult& r) { results.push_back(r); })
            .has_value());
  }
  svc.drain();
  ASSERT_EQ(results.size(), 2u);
  const auto& cold = results[0];
  const auto& warm = results[1];
  EXPECT_EQ(cold.id, "cold");
  EXPECT_EQ(warm.id, "warm");
  EXPECT_EQ(cold.state, JobState::Done);
  EXPECT_EQ(warm.state, JobState::Done);
  EXPECT_EQ(cold.cache, CacheOutcome::Cold);
  EXPECT_EQ(warm.cache, CacheOutcome::Warm);
  // The warm verdict is bit-identical to the cold one.
  EXPECT_EQ(warm.summary, cold.summary);
  EXPECT_EQ(warm.states, cold.states);
  EXPECT_EQ(warm.witnessActions, cold.witnessActions);
  EXPECT_EQ(warm.witness, cold.witness);
  EXPECT_EQ(warm.exitCode, cold.exitCode);
  EXPECT_FALSE(cold.summary.empty());
  EXPECT_FALSE(cold.witness.empty());
  // And the pool counted one build + one reuse.
  EXPECT_EQ(svc.cacheStats().builds, 1u);
  EXPECT_EQ(svc.cacheStats().reuses, 1u);
  // serve.* counters flushed into the registry.
  const auto snap = registry.counters();
  const auto counter = [&](const std::string& name) -> std::uint64_t {
    for (const auto& [k, v] : snap) {
      if (k == name) return v;
    }
    return 0;
  };
  EXPECT_EQ(counter("serve.jobs.submitted"), 2u);
  EXPECT_EQ(counter("serve.jobs.completed"), 2u);
  EXPECT_EQ(counter("serve.cache.context_builds"), 1u);
  EXPECT_EQ(counter("serve.cache.context_reuses"), 1u);
}

TEST(ServeService, DisabledCacheRunsEveryJobCold) {
  AnalysisService::Config cfg;
  cfg.cacheContexts = 0;
  AnalysisService svc(cfg);
  std::vector<JobResult> results;
  for (const char* id : {"a", "b"}) {
    ASSERT_FALSE(
        svc.submit(relaySpec(id),
                   [&](const JobResult& r) { results.push_back(r); })
            .has_value());
  }
  svc.drain();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].cache, CacheOutcome::Cold);
  EXPECT_EQ(results[1].cache, CacheOutcome::Cold);
  EXPECT_EQ(results[0].summary, results[1].summary);
  EXPECT_EQ(svc.cacheStats().builds, 0u);
}

TEST(ServeService, HigherPriorityJobsFinishFirst) {
  AnalysisService svc(AnalysisService::Config{});  // one worker: serialized
  std::vector<std::string> finished;
  auto submit = [&](const std::string& id, int priority) {
    auto spec = relaySpec(id);
    spec.priority = priority;
    ASSERT_FALSE(
        svc.submit(spec,
                   [&](const JobResult& r) { finished.push_back(r.id); })
            .has_value());
  };
  submit("low", -5);
  submit("high", 5);
  submit("mid", 0);
  svc.drain();
  EXPECT_EQ(finished, (std::vector<std::string>{"high", "mid", "low"}));
}

TEST(ServeService, CancelBeforeFirstTickYieldsCancelledResult) {
  AnalysisService svc(AnalysisService::Config{});
  std::vector<JobResult> results;
  ASSERT_FALSE(
      svc.submit(relaySpec("doomed"),
                 [&](const JobResult& r) { results.push_back(r); })
          .has_value());
  EXPECT_TRUE(svc.cancel("doomed"));
  EXPECT_FALSE(svc.cancel("nosuch"));
  svc.drain();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].state, JobState::Cancelled);
  // The id is live no more: it is reusable and un-cancellable.
  EXPECT_FALSE(svc.cancel("doomed"));
  EXPECT_TRUE(svc.liveJobs().empty());
}

TEST(ServeService, LiveJobsReportsQueuedState) {
  AnalysisService svc(AnalysisService::Config{});
  ASSERT_FALSE(
      svc.submit(relaySpec("waiting"), [](const JobResult&) {}).has_value());
  const auto live = svc.liveJobs();
  ASSERT_EQ(live.size(), 1u);
  EXPECT_EQ(live[0].id, "waiting");
  EXPECT_EQ(live[0].candidate, "relay");
  EXPECT_EQ(live[0].state, JobState::Queued);
  svc.cancelAll();
  svc.drain();
}

}  // namespace
}  // namespace boosting::serve
