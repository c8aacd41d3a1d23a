#include "obs/registry.h"

#include <algorithm>
#include <cstdio>

namespace boosting::obs {

void Registry::add(std::string_view name, std::uint64_t delta) {
  std::lock_guard<std::mutex> lock(m_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    counters_.emplace(std::string(name), delta);
  } else {
    it->second += delta;
  }
}

void Registry::maxOf(std::string_view name, std::uint64_t value) {
  std::lock_guard<std::mutex> lock(m_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    counters_.emplace(std::string(name), value);
  } else {
    it->second = std::max(it->second, value);
  }
}

void Registry::addTime(std::string_view name, std::uint64_t wallNs) {
  std::lock_guard<std::mutex> lock(m_);
  auto it = timers_.find(name);
  if (it == timers_.end()) {
    timers_.emplace(std::string(name), TimerStat{wallNs, 1});
  } else {
    it->second.wallNs += wallNs;
    it->second.count += 1;
  }
}

void Registry::derive(std::string_view name, double value) {
  std::lock_guard<std::mutex> lock(m_);
  auto it = derived_.find(name);
  if (it == derived_.end()) {
    derived_.emplace(std::string(name), value);
  } else {
    it->second = value;
  }
}

std::uint64_t Registry::value(std::string_view name) const {
  std::lock_guard<std::mutex> lock(m_);
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

Registry::TimerStat Registry::timer(std::string_view name) const {
  std::lock_guard<std::mutex> lock(m_);
  auto it = timers_.find(name);
  return it == timers_.end() ? TimerStat{} : it->second;
}

std::vector<std::pair<std::string, std::uint64_t>> Registry::counters() const {
  std::lock_guard<std::mutex> lock(m_);
  return {counters_.begin(), counters_.end()};
}

std::vector<std::pair<std::string, Registry::TimerStat>> Registry::timers()
    const {
  std::lock_guard<std::mutex> lock(m_);
  return {timers_.begin(), timers_.end()};
}

std::vector<std::pair<std::string, double>> Registry::derived() const {
  std::lock_guard<std::mutex> lock(m_);
  return {derived_.begin(), derived_.end()};
}

namespace {

// Same minimal escape as bench/bench_json.h: names are dotted identifiers,
// but stay defensive about quotes and backslashes.
std::string jsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

bool Registry::writeMetricsJson(const std::string& path,
                                std::string_view tool) const {
  const auto cs = counters();
  const auto ts = timers();
  const auto ds = derived();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "obs: cannot open %s for writing\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n  \"schema\": \"boosting-metrics-v11\",\n");
  std::fprintf(f, "  \"tool\": \"%s\",\n",
               jsonEscape(tool).c_str());
  std::fprintf(f, "  \"counters\": [\n");
  for (std::size_t i = 0; i < cs.size(); ++i) {
    std::fprintf(f, "    {\"name\": \"%s\", \"value\": %llu}%s\n",
                 jsonEscape(cs[i].first).c_str(),
                 static_cast<unsigned long long>(cs[i].second),
                 i + 1 < cs.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"timers\": [\n");
  for (std::size_t i = 0; i < ts.size(); ++i) {
    std::fprintf(
        f, "    {\"name\": \"%s\", \"wall_ns\": %llu, \"count\": %llu}%s\n",
        jsonEscape(ts[i].first).c_str(),
        static_cast<unsigned long long>(ts[i].second.wallNs),
        static_cast<unsigned long long>(ts[i].second.count),
        i + 1 < ts.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"derived\": [\n");
  for (std::size_t i = 0; i < ds.size(); ++i) {
    std::fprintf(f, "    {\"name\": \"%s\", \"value\": %.6g}%s\n",
                 jsonEscape(ds[i].first).c_str(), ds[i].second,
                 i + 1 < ds.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  return true;
}

}  // namespace boosting::obs
