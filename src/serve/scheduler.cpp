#include "serve/scheduler.h"

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <system_error>
#include <vector>

namespace boosting::serve {

void JobControl::requestPause() {
  std::lock_guard<std::mutex> lock(m_);
  Want expected = Want::Run;
  // Cancel wins over pause; a cancelled job never goes back to paused.
  want_.compare_exchange_strong(expected, Want::Pause,
                                std::memory_order_acq_rel);
  cv_.notify_all();
}

void JobControl::requestResume() {
  std::lock_guard<std::mutex> lock(m_);
  Want expected = Want::Pause;
  want_.compare_exchange_strong(expected, Want::Run,
                                std::memory_order_acq_rel);
  cv_.notify_all();
}

void JobControl::requestCancel() {
  std::lock_guard<std::mutex> lock(m_);
  want_.store(Want::Cancel, std::memory_order_release);
  cv_.notify_all();
}

void JobControl::checkpoint() {
  // Fast path: one atomic load per expansion.
  Want w = want_.load(std::memory_order_relaxed);
  if (w == Want::Run) return;
  if (w == Want::Cancel) throw JobCancelled();
  std::unique_lock<std::mutex> lock(m_);
  cv_.wait(lock, [this] {
    return want_.load(std::memory_order_acquire) != Want::Pause;
  });
  if (want_.load(std::memory_order_acquire) == Want::Cancel) {
    throw JobCancelled();
  }
}

const char* jobStateName(JobState s) {
  switch (s) {
    case JobState::Queued: return "queued";
    case JobState::Running: return "running";
    case JobState::Done: return "done";
    case JobState::Failed: return "failed";
    case JobState::Cancelled: return "cancelled";
  }
  return "?";
}

TickScheduler::TickScheduler(Config cfg) : cfg_(cfg) {
  if (cfg_.maxConcurrent == 0) cfg_.maxConcurrent = 1;
  int fds[2];
  if (::pipe2(fds, O_NONBLOCK | O_CLOEXEC) != 0) {
    throw std::system_error(errno, std::generic_category(), "wake pipe");
  }
  wakeRead_ = fds[0];
  wakeWrite_ = fds[1];
}

TickScheduler::~TickScheduler() {
  // drain() reaps, and so joins, every worker.
  cancelAll();
  drain();
  ::close(wakeRead_);
  ::close(wakeWrite_);
}

void TickScheduler::wake() const {
  // A full pipe (EAGAIN) already holds a pending wakeup, so a failed write
  // loses nothing.
  const char byte = 1;
  while (::write(wakeWrite_, &byte, 1) < 0 && errno == EINTR) {
  }
}

void TickScheduler::clearWake() const {
  char buf[256];
  while (::read(wakeRead_, buf, sizeof buf) > 0) {
  }
}

void TickScheduler::awaitWake() const {
  pollfd pfd{wakeRead_, POLLIN, 0};
  while (::poll(&pfd, 1, -1) < 0 && errno == EINTR) {
  }
  clearWake();
}

std::uint64_t TickScheduler::submit(int priority, Body body,
                                    OnFinish onFinish) {
  std::lock_guard<std::mutex> lock(m_);
  const std::uint64_t id = nextId_++;
  Job& job = jobs_[id];
  job.priority = priority;
  job.control = std::make_shared<JobControl>();
  job.body = std::move(body);
  job.onFinish = std::move(onFinish);
  return id;
}

bool TickScheduler::cancel(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(m_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) return false;
  it->second.control->requestCancel();
  return true;
}

bool TickScheduler::pause(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(m_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) return false;
  Job& job = it->second;
  if (job.state == JobState::Queued && job.control->cancelRequested()) {
    return false;
  }
  job.paused = true;
  if (job.state == JobState::Running) job.control->requestPause();
  return true;
}

bool TickScheduler::resume(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(m_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) return false;
  Job& job = it->second;
  job.paused = false;
  job.control->requestResume();
  return true;
}

void TickScheduler::dispatchLocked(Job& job) {
  job.state = JobState::Running;
  ++running_;
  // The worker only touches its own Job fields (outcome, error) and
  // releases them through `finished`; everything else stays owned by the
  // tick thread. std::map nodes never relocate, and the entry is erased
  // only after tick() joins the worker, so the pointer is stable.
  Job* j = &job;
  job.worker = std::thread([this, j] {
    JobState outcome = JobState::Done;
    std::string error;
    try {
      j->body(*j->control);
    } catch (const JobCancelled&) {
      outcome = JobState::Cancelled;
    } catch (const std::exception& e) {
      outcome = JobState::Failed;
      error = e.what();
    } catch (...) {
      outcome = JobState::Failed;
      error = "unknown exception";
    }
    j->outcome = outcome;
    j->error = std::move(error);
    j->finished.store(true, std::memory_order_release);
    wake();
  });
}

std::size_t TickScheduler::tick() {
  // Callbacks fire after the lock drops: OnFinish may call back into the
  // scheduler (e.g. submit a follow-up job).
  struct Finished {
    OnFinish cb;
    std::uint64_t id;
    JobState state;
    std::string error;
  };
  std::vector<Finished> fired;
  std::size_t live = 0;
  {
    std::lock_guard<std::mutex> lock(m_);
    // (1) Reap workers whose body returned.
    for (auto it = jobs_.begin(); it != jobs_.end();) {
      Job& job = it->second;
      if (job.state != JobState::Running ||
          !job.finished.load(std::memory_order_acquire)) {
        ++it;
        continue;
      }
      job.worker.join();
      --running_;
      fired.push_back(
          {std::move(job.onFinish), it->first, job.outcome, job.error});
      it = jobs_.erase(it);
    }
    // (2) Finalize queued jobs that were cancelled before ever running.
    for (auto it = jobs_.begin(); it != jobs_.end();) {
      Job& job = it->second;
      if (job.state != JobState::Queued || !job.control->cancelRequested()) {
        ++it;
        continue;
      }
      fired.push_back(
          {std::move(job.onFinish), it->first, JobState::Cancelled, {}});
      it = jobs_.erase(it);
    }
    // (3) Dispatch: highest priority first, FIFO within a priority (jobs_
    // iterates in submission order, which the stable sort keeps).
    if (running_ < cfg_.maxConcurrent) {
      std::vector<Job*> runnable;
      for (auto& [id, job] : jobs_) {
        if (job.state == JobState::Queued && !job.paused) {
          runnable.push_back(&job);
        }
      }
      std::stable_sort(runnable.begin(), runnable.end(), [](Job* a, Job* b) {
        return a->priority > b->priority;
      });
      for (Job* job : runnable) {
        if (running_ >= cfg_.maxConcurrent) break;
        dispatchLocked(*job);
      }
    }
    live = jobs_.size();
  }
  for (Finished& f : fired) {
    if (f.cb) f.cb(f.id, f.state, f.error);
  }
  return live;
}

void TickScheduler::drain() {
  while (tick() != 0) awaitWake();
}

void TickScheduler::cancelAll() {
  std::lock_guard<std::mutex> lock(m_);
  for (auto& [id, job] : jobs_) job.control->requestCancel();
}

std::size_t TickScheduler::queuedCount() const {
  std::lock_guard<std::mutex> lock(m_);
  std::size_t n = 0;
  for (const auto& [id, job] : jobs_) {
    if (job.state == JobState::Queued) ++n;
  }
  return n;
}

std::size_t TickScheduler::runningCount() const {
  std::lock_guard<std::mutex> lock(m_);
  return running_;
}

bool TickScheduler::snapshot(std::uint64_t id, JobSnapshot* out) const {
  std::lock_guard<std::mutex> lock(m_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) return false;
  const Job& job = it->second;
  *out = JobSnapshot{job.state, job.paused};
  return true;
}

}  // namespace boosting::serve
