#include "sim/trace_io.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <sstream>

namespace boosting::sim {

using ioa::Action;
using ioa::ActionKind;
using util::Value;

namespace {

bool isBareSymbol(const std::string& s) {
  if (s.empty() || s == "nil") return false;
  if (std::isdigit(static_cast<unsigned char>(s[0])) || s[0] == '-') {
    return false;
  }
  for (char c : s) {
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
          c == '&' || c == '-' || c == '.')) {
      return false;
    }
  }
  return true;
}

struct Parser {
  const std::string& text;
  std::size_t pos = 0;
  bool failed = false;

  void skipSpace() {
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos]))) {
      ++pos;
    }
  }

  bool atEnd() {
    skipSpace();
    return pos >= text.size();
  }

  Value value() {
    skipSpace();
    if (pos >= text.size()) {
      failed = true;
      return {};
    }
    const char c = text[pos];
    if (c == '(') {
      ++pos;
      Value::List items;
      for (;;) {
        skipSpace();
        if (pos >= text.size()) {
          failed = true;
          return {};
        }
        if (text[pos] == ')') {
          ++pos;
          return Value(std::move(items));
        }
        items.push_back(value());
        if (failed) return {};
      }
    }
    if (c == '"') {
      ++pos;
      std::string out;
      while (pos < text.size() && text[pos] != '"') {
        if (text[pos] == '\\' && pos + 1 < text.size()) ++pos;
        out += text[pos++];
      }
      if (pos >= text.size()) {
        failed = true;
        return {};
      }
      ++pos;  // closing quote
      return Value(std::move(out));
    }
    // Bare token: integer, nil, or symbol.
    std::size_t start = pos;
    while (pos < text.size() &&
           !std::isspace(static_cast<unsigned char>(text[pos])) &&
           text[pos] != '(' && text[pos] != ')') {
      ++pos;
    }
    std::string token = text.substr(start, pos - start);
    if (token.empty()) {
      failed = true;
      return {};
    }
    if (token == "nil") return Value::nil();
    const bool numeric =
        (token[0] == '-' && token.size() > 1) ||
        std::isdigit(static_cast<unsigned char>(token[0]));
    if (numeric) {
      try {
        return Value(static_cast<std::int64_t>(std::stoll(token)));
      } catch (...) {
        failed = true;
        return {};
      }
    }
    return Value(std::move(token));
  }
};

// Offending-token excerpt for diagnostics: the whitespace-delimited token
// starting at `pos`, truncated to keep messages one line.
std::string tokenAt(const std::string& text, std::size_t pos) {
  std::size_t end = pos;
  while (end < text.size() &&
         !std::isspace(static_cast<unsigned char>(text[end]))) {
    ++end;
  }
  constexpr std::size_t kMaxToken = 32;
  std::string out = text.substr(pos, std::min(end - pos, kMaxToken));
  if (end - pos > kMaxToken) out += "...";
  return out;
}

std::optional<ActionKind> kindFromName(const std::string& name) {
  using K = ActionKind;
  static const std::pair<const char*, K> kTable[] = {
      {"init", K::EnvInit},           {"decide", K::EnvDecide},
      {"invoke", K::Invoke},          {"respond", K::Respond},
      {"perform", K::Perform},        {"dummy_perform", K::DummyPerform},
      {"dummy_output", K::DummyOutput}, {"compute", K::Compute},
      {"dummy_compute", K::DummyCompute}, {"fail", K::Fail},
      {"step", K::ProcStep},          {"proc_dummy", K::ProcDummy},
  };
  for (const auto& [n, k] : kTable) {
    if (name == n) return k;
  }
  return std::nullopt;
}

}  // namespace

std::string renderValue(const Value& v) {
  switch (v.kind()) {
    case Value::Kind::Nil:
      return "nil";
    case Value::Kind::Int:
      return std::to_string(v.asInt());
    case Value::Kind::Str: {
      const std::string& s = v.asStr();
      if (isBareSymbol(s)) return s;
      std::string out = "\"";
      for (char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        out += c;
      }
      return out + "\"";
    }
    case Value::Kind::List: {
      std::string out = "(";
      const auto& xs = v.asList();
      for (std::size_t i = 0; i < xs.size(); ++i) {
        if (i > 0) out += ' ';
        out += renderValue(xs[i]);
      }
      return out + ")";
    }
  }
  return "nil";
}

std::string TraceParseError::str() const {
  if (line == 0) return "no error";
  std::string out = "line " + std::to_string(line) + ", column " +
                    std::to_string(column) + ": " + message;
  if (!token.empty()) out += " '" + token + "'";
  return out;
}

std::optional<Value> parseValue(const std::string& text,
                                TraceParseError* error) {
  Parser p{text};
  Value v = p.value();
  if (p.failed || !p.atEnd()) {
    if (error) {
      // p.pos sits at (or just past) the character that broke the grammar;
      // for "parsed but trailing garbage" it sits at the garbage itself.
      const std::size_t at = std::min(p.pos, text.size());
      error->line = 1;
      error->column = at + 1;
      error->token = tokenAt(text, at);
      error->message = p.failed ? "malformed value" : "trailing input after value";
    }
    return std::nullopt;
  }
  return v;
}

std::string renderExecution(const ioa::Execution& exec) {
  std::string out;
  out += "# boosting-resilience execution trace: " +
         std::to_string(exec.size()) + " actions\n";
  for (const Action& a : exec.actions()) {
    out += std::string(ioa::actionKindName(a.kind)) + " " +
           std::to_string(a.endpoint) + " " + std::to_string(a.component) +
           " " + std::to_string(a.gtask) + " " + renderValue(a.payload) +
           "\n";
  }
  return out;
}

ExecutionParseResult parseExecutionDetailed(const std::string& text) {
  ExecutionParseResult result;
  ioa::Execution exec;
  std::istringstream in(text);
  std::string line;
  std::size_t lineNo = 0;

  auto fail = [&](std::size_t column, std::string message,
                  std::string token) -> ExecutionParseResult& {
    result.error.line = lineNo;
    result.error.column = column;
    result.error.message = std::move(message);
    result.error.token = std::move(token);
    return result;
  };

  while (std::getline(in, line)) {
    ++lineNo;
    std::size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;

    // Hand-tokenize the four header fields so every complaint can point at
    // the exact line/column (istream extraction reports neither).
    std::size_t pos = first;
    auto nextToken = [&](std::size_t* start) -> std::string {
      while (pos < line.size() &&
             std::isspace(static_cast<unsigned char>(line[pos]))) {
        ++pos;
      }
      *start = pos;
      while (pos < line.size() &&
             !std::isspace(static_cast<unsigned char>(line[pos]))) {
        ++pos;
      }
      return line.substr(*start, pos - *start);
    };

    std::size_t kindCol = 0;
    const std::string kindName = nextToken(&kindCol);
    const auto kind = kindFromName(kindName);
    if (!kind) {
      return fail(kindCol + 1, "unknown action kind", kindName);
    }

    static const char* kFieldName[3] = {"endpoint", "component", "gtask"};
    int fields[3] = {0, 0, 0};
    for (int fi = 0; fi < 3; ++fi) {
      std::size_t col = 0;
      const std::string tok = nextToken(&col);
      if (tok.empty()) {
        return fail(col + 1,
                    std::string("missing integer field <") + kFieldName[fi] +
                        ">",
                    "");
      }
      const char* b = tok.data();
      const char* e = b + tok.size();
      auto [ptr, ec] = std::from_chars(b, e, fields[fi]);
      if (ec != std::errc() || ptr != e) {
        return fail(col + 1,
                    std::string("expected integer for <") + kFieldName[fi] +
                        ">, got",
                    tok);
      }
    }

    // Payload: the rest of the line (defaulting to nil), parsed with the
    // value grammar; its error columns are offsets into `rest`, shifted
    // back to line coordinates here.
    const std::size_t restStart = pos;
    const std::string rest = line.substr(restStart);
    const bool restBlank =
        rest.find_first_not_of(" \t\r") == std::string::npos;
    TraceParseError verr;
    auto payload = parseValue(restBlank ? "nil" : rest, &verr);
    if (!payload) {
      return fail(restStart + verr.column, "bad payload: " + verr.message,
                  verr.token);
    }

    Action a;
    a.kind = *kind;
    a.endpoint = fields[0];
    a.component = fields[1];
    a.gtask = fields[2];
    a.payload = std::move(*payload);
    exec.append(std::move(a));
  }
  result.execution = std::move(exec);
  return result;
}

}  // namespace boosting::sim
