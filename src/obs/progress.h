// Rate-limited stderr progress ticker.
//
// The engines report progress through Registry::progress(label, value) at
// coarse intervals; this sink turns those reports into at most one stderr
// line per `minInterval`, so a long region scan shows a heartbeat
//
//   progress[  1.40s] explore.states=18231
//
// without flooding terminals or CI logs. Thread-safe: a single atomic
// timestamp claims the right to print, so concurrent jobs race benignly
// (at most one line per interval, whichever job wins).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string_view>

namespace boosting::obs {

class ProgressTicker {
 public:
  explicit ProgressTicker(
      std::chrono::nanoseconds minInterval = std::chrono::milliseconds(200))
      : minIntervalNs_(static_cast<std::uint64_t>(minInterval.count())),
        start_(std::chrono::steady_clock::now()) {}

  // Registry::ProgressFn-compatible call operator.
  void operator()(std::string_view label, std::uint64_t value);

  std::uint64_t linesPrinted() const {
    return lines_.load(std::memory_order_relaxed);
  }

 private:
  std::uint64_t minIntervalNs_;
  std::chrono::steady_clock::time_point start_;
  std::atomic<std::uint64_t> lastNs_{0};
  std::atomic<std::uint64_t> lines_{0};
};

}  // namespace boosting::obs
