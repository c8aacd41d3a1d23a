// Wire format of the analysis service: line-delimited JSON ("JSONL"), one
// FLAT object per line. Requests and events never nest -- every field is a
// string, integer, double, boolean or null -- which keeps the hand-rolled
// parser small, the grammar auditable (see DESIGN.md "Analysis service"),
// and the repository free of a JSON dependency.
//
//   request  := "{" pair ("," pair)* "}" "\n"
//   pair     := string ":" (string | number | "true" | "false" | "null")
//
// Nested arrays/objects are rejected with a diagnostic, as is trailing
// garbage after the closing brace. Parsing is strict (RFC 8259 string
// escapes incl. \uXXXX surrogate pairs); serialization always emits valid
// JSON that python's json module round-trips, which is what the load
// driver and the CI smoke rely on.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "obs/json.h"

namespace boosting::serve {

// One field value. Kind discriminates; only the matching member is
// meaningful.
struct WireValue {
  enum class Kind { Null, Bool, Int, Double, Str };
  Kind kind = Kind::Null;
  bool b = false;
  std::int64_t i = 0;
  double d = 0.0;
  std::string s;

  static WireValue ofBool(bool v);
  static WireValue ofInt(std::int64_t v);
  static WireValue ofDouble(double v);
  static WireValue ofStr(std::string v);
};

// A flat object. std::map keeps serialization deterministic (sorted keys),
// which makes server output diffable in tests.
using WireObject = std::map<std::string, WireValue>;

// Parse one request line into *out. Returns false and a position-bearing
// diagnostic in *error on malformed input (error is always set on
// failure). *out is cleared first.
bool parseWireObject(std::string_view line, WireObject* out,
                     std::string* error);

// `s` as a JSON string token, quotes included, with all mandatory escapes.
using obs::quoteJson;

// Serialize to one line (no trailing newline). Doubles use %.17g so values
// survive a parse round trip.
std::string writeWireObject(const WireObject& obj);

// -- Typed field helpers (missing key / wrong kind => fallback) ----------
std::string getStr(const WireObject& o, const std::string& key,
                   const std::string& fallback = "");
std::int64_t getInt(const WireObject& o, const std::string& key,
                    std::int64_t fallback = 0);
bool getBool(const WireObject& o, const std::string& key,
             bool fallback = false);
bool hasKey(const WireObject& o, const std::string& key);

}  // namespace boosting::serve
