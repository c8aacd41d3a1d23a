// AnalysisService tests: submit-time validation (mirroring the CLI flag
// diagnostics), end-to-end verdict equality with warm-cache reuse,
// priority-ordered completion, pre-dispatch cancellation, and progress
// reports waking the driving thread.
#include "serve/service.h"

#include <gtest/gtest.h>
#include <poll.h>

#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
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

TEST(ServeService, QueuedProgressWakesTheDrivingThread) {
  // relay n=5 expands past the progress stride (2,048 expansions) twice,
  // with thousands of expansions still to go after the first report.
  //
  // The registry's progress sink runs on the job's worker before every
  // valence expansion. Once a wakeup is pending it parks the worker (the
  // first time only) until the driving thread has requested the pause,
  // so the job is held at the checkpoint right after its first report
  // however the threads are scheduled. The sink parks only while the job
  // runs, so a parked worker also proves the wakeup came before the
  // job's finish: it was the progress report.
  obs::Registry reg;
  AnalysisService::Config cfg;
  cfg.metrics = &reg;
  AnalysisService svc(cfg);
  std::mutex m;
  std::condition_variable cv;
  bool parked = false;
  bool released = false;
  const int wakeFd = svc.wakeFd();
  reg.setProgress([&](std::string_view, std::uint64_t) {
    std::unique_lock<std::mutex> lock(m);
    if (parked) return;
    pollfd pending{wakeFd, POLLIN, 0};
    if (::poll(&pending, 1, 0) != 1) return;
    parked = true;
    cv.notify_all();
    cv.wait(lock, [&] { return released; });
  });
  const auto release = [&] {
    std::lock_guard<std::mutex> lock(m);
    released = true;
    cv.notify_all();
  };
  // Declared after svc, so it runs first: a failed assertion must not
  // leave the worker parked while svc's destructor drains.
  struct ReleaseOnExit {
    std::function<void()> fn;
    ~ReleaseOnExit() { fn(); }
  } releaseOnExit{release};

  JobSpec spec = relaySpec("chatty");
  spec.n = 5;
  spec.progress = true;
  std::vector<std::uint64_t> progress;
  bool done = false;
  ASSERT_FALSE(svc.submit(
                      spec, [&](const JobResult&) { done = true; },
                      [&](const std::string&, std::uint64_t expansions) {
                        progress.push_back(expansions);
                      })
                   .has_value());
  EXPECT_EQ(svc.tick(), 1u);  // dispatch
  pollfd pfd{svc.wakeFd(), POLLIN, 0};
  // Hang checks, not latency bounds.
  ASSERT_EQ(::poll(&pfd, 1, 10000), 1);
  {
    std::unique_lock<std::mutex> lock(m);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(10),
                            [&] { return parked; }))
        << "the worker never saw its wakeup pending while running";
  }
  EXPECT_TRUE(svc.pause("chatty"));
  release();
  svc.clearWake();
  svc.tick();
  // Exactly the first stride's report, and the job is held, not done.
  EXPECT_EQ(progress, (std::vector<std::uint64_t>{2048}));
  EXPECT_FALSE(done);
  EXPECT_TRUE(svc.resume("chatty"));
  svc.drain();
  EXPECT_TRUE(done);
  EXPECT_EQ(progress, (std::vector<std::uint64_t>{2048, 4096}));
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
