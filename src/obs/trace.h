// Structured trace events as JSON-lines.
//
// Every event is one self-contained JSON object per line:
//
//   {"ev":"initialization","t_ns":183902,"alpha":2,"valence":"bivalent"}
//
// `ev` is the event type, `t_ns` the steady-clock time since the writer
// was opened; the remaining fields are event-specific. The format is
// append-only and tool-friendly (jq, pandas.read_json(lines=True)), and a
// single mutex serializes whole lines, so events from concurrent jobs
// never interleave mid-record.
//
// Emission is opt-in: components hold an obs::Registry* and only build
// events when registry->trace() is non-null, so a disabled registry costs
// one pointer test per site.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <type_traits>

namespace boosting::obs {

// One event field. The constructors disambiguate the numeric types so call
// sites can write {"alpha", 2} or {"rate", 0.5} directly.
struct Field {
  enum class Kind { Int, UInt, Double, Bool, Str };

  std::string_view key;
  Kind kind;
  std::int64_t i = 0;
  std::uint64_t u = 0;
  double d = 0.0;
  bool b = false;
  std::string_view s;

  // Two constrained templates instead of per-type overloads: whether
  // int64_t spells `long` or `long long` varies by ABI, so enumerating the
  // builtin integer types collides on some platforms.
  template <typename T,
            std::enable_if_t<std::is_integral_v<T> && std::is_signed_v<T> &&
                                 !std::is_same_v<T, bool>,
                             int> = 0>
  Field(std::string_view k, T v)
      : key(k), kind(Kind::Int), i(static_cast<std::int64_t>(v)) {}
  template <typename T,
            std::enable_if_t<std::is_integral_v<T> && std::is_unsigned_v<T> &&
                                 !std::is_same_v<T, bool>,
                             int> = 0>
  Field(std::string_view k, T v)
      : key(k), kind(Kind::UInt), u(static_cast<std::uint64_t>(v)) {}
  Field(std::string_view k, double v) : key(k), kind(Kind::Double), d(v) {}
  Field(std::string_view k, bool v) : key(k), kind(Kind::Bool), b(v) {}
  Field(std::string_view k, std::string_view v)
      : key(k), kind(Kind::Str), s(v) {}
  Field(std::string_view k, const char* v)
      : key(k), kind(Kind::Str), s(v) {}
};

class TraceWriter {
 public:
  // Opens `path` for writing; returns null and fills *error on failure.
  static std::shared_ptr<TraceWriter> open(const std::string& path,
                                           std::string* error = nullptr);
  // Takes ownership of `f` (closed on destruction).
  explicit TraceWriter(std::FILE* f);
  ~TraceWriter();
  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  // Append one event line: {"ev":type,"t_ns":...,<fields>}. Thread-safe.
  void event(std::string_view type, std::initializer_list<Field> fields);

  std::uint64_t eventsWritten() const { return events_; }

 private:
  std::FILE* f_;
  std::mutex m_;
  std::uint64_t events_ = 0;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace boosting::obs
