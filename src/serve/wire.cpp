#include "serve/wire.h"

#include <cctype>
#include <charconv>
#include <cstdio>

namespace boosting::serve {

WireValue WireValue::ofBool(bool v) {
  WireValue w;
  w.kind = Kind::Bool;
  w.b = v;
  return w;
}

WireValue WireValue::ofInt(std::int64_t v) {
  WireValue w;
  w.kind = Kind::Int;
  w.i = v;
  return w;
}

WireValue WireValue::ofDouble(double v) {
  WireValue w;
  w.kind = Kind::Double;
  w.d = v;
  return w;
}

WireValue WireValue::ofStr(std::string v) {
  WireValue w;
  w.kind = Kind::Str;
  w.s = std::move(v);
  return w;
}

namespace {

// Recursive-descent-without-recursion parser over a flat object: a cursor
// plus fail() diagnostics carrying the byte offset, which is all a
// one-line protocol needs.
class Cursor {
 public:
  explicit Cursor(std::string_view text) : text_(text) {}

  bool fail(std::string* error, const std::string& what) {
    if (error) {
      *error = what + " at byte " + std::to_string(pos_);
    }
    return false;
  }

  void skipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\r' ||
            text_[pos_] == '\n')) {
      ++pos_;
    }
  }

  bool atEnd() {
    skipWs();
    return pos_ >= text_.size();
  }

  bool peek(char* c) {
    skipWs();
    if (pos_ >= text_.size()) return false;
    *c = text_[pos_];
    return true;
  }

  bool consume(char expect) {
    skipWs();
    if (pos_ >= text_.size() || text_[pos_] != expect) return false;
    ++pos_;
    return true;
  }

  bool consumeWord(std::string_view word) {
    skipWs();
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  // A JSON string, cursor on the opening quote.
  bool parseString(std::string* out, std::string* error) {
    if (!consume('"')) return fail(error, "expected '\"'");
    out->clear();
    while (true) {
      if (pos_ >= text_.size()) return fail(error, "unterminated string");
      char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) {
        return fail(error, "unescaped control character in string");
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return fail(error, "dangling escape");
      char e = text_[pos_++];
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          unsigned cp = 0;
          if (!parseHex4(&cp)) return fail(error, "bad \\u escape");
          // Surrogate pair: a high surrogate must be followed by \uDC00..
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            unsigned lo = 0;
            if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
              return fail(error, "lone high surrogate");
            }
            pos_ += 2;
            if (!parseHex4(&lo) || lo < 0xDC00 || lo > 0xDFFF) {
              return fail(error, "bad low surrogate");
            }
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return fail(error, "lone low surrogate");
          }
          appendUtf8(out, cp);
          break;
        }
        default:
          return fail(error, "unknown escape");
      }
    }
  }

  // A JSON number; integers without fraction/exponent stay Int.
  bool parseNumber(WireValue* out, std::string* error) {
    skipWs();
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(
                                      text_[pos_]))) {
      ++pos_;
    }
    bool isDouble = false;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      isDouble = true;
      ++pos_;
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(
                                        text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      isDouble = true;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(
                                        text_[pos_]))) {
        ++pos_;
      }
    }
    const std::string_view tok = text_.substr(start, pos_ - start);
    if (tok.empty() || tok == "-") return fail(error, "malformed number");
    if (!isDouble) {
      std::int64_t v = 0;
      auto [p, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), v);
      if (ec == std::errc() && p == tok.data() + tok.size()) {
        *out = WireValue::ofInt(v);
        return true;
      }
      // Overflowed int64: fall through to double.
    }
    // std::from_chars for doubles is not universally available; the token
    // was validated character-by-character above, so sscanf is safe.
    double d = 0.0;
    if (std::sscanf(std::string(tok).c_str(), "%lf", &d) != 1) {
      return fail(error, "malformed number");
    }
    *out = WireValue::ofDouble(d);
    return true;
  }

 private:
  bool parseHex4(unsigned* out) {
    if (pos_ + 4 > text_.size()) return false;
    unsigned v = 0;
    for (int k = 0; k < 4; ++k) {
      const char c = text_[pos_++];
      v <<= 4;
      if (c >= '0' && c <= '9') {
        v |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        v |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        return false;
      }
    }
    *out = v;
    return true;
  }

  static void appendUtf8(std::string* out, unsigned cp) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

bool parseWireObject(std::string_view line, WireObject* out,
                     std::string* error) {
  out->clear();
  Cursor cur(line);
  if (!cur.consume('{')) return cur.fail(error, "expected '{'");
  char c = 0;
  if (cur.peek(&c) && c == '}') {
    cur.consume('}');
  } else {
    while (true) {
      std::string key;
      if (!cur.parseString(&key, error)) return false;
      if (!cur.consume(':')) return cur.fail(error, "expected ':'");
      WireValue v;
      if (!cur.peek(&c)) return cur.fail(error, "truncated value");
      if (c == '"') {
        std::string s;
        if (!cur.parseString(&s, error)) return false;
        v = WireValue::ofStr(std::move(s));
      } else if (c == 't') {
        if (!cur.consumeWord("true")) return cur.fail(error, "bad literal");
        v = WireValue::ofBool(true);
      } else if (c == 'f') {
        if (!cur.consumeWord("false")) return cur.fail(error, "bad literal");
        v = WireValue::ofBool(false);
      } else if (c == 'n') {
        if (!cur.consumeWord("null")) return cur.fail(error, "bad literal");
        v = WireValue{};
      } else if (c == '{' || c == '[') {
        return cur.fail(error, "nested containers are not part of the "
                               "protocol (flat objects only)");
      } else {
        if (!cur.parseNumber(&v, error)) return false;
      }
      (*out)[key] = std::move(v);
      if (cur.consume(',')) continue;
      if (cur.consume('}')) break;
      return cur.fail(error, "expected ',' or '}'");
    }
  }
  if (!cur.atEnd()) return cur.fail(error, "trailing garbage after object");
  return true;
}

std::string writeWireObject(const WireObject& obj) {
  std::string out = "{";
  bool first = true;
  for (const auto& [key, v] : obj) {
    if (!first) out.push_back(',');
    first = false;
    out += quoteJson(key);
    out.push_back(':');
    switch (v.kind) {
      case WireValue::Kind::Null:
        out += "null";
        break;
      case WireValue::Kind::Bool:
        out += v.b ? "true" : "false";
        break;
      case WireValue::Kind::Int:
        out += std::to_string(v.i);
        break;
      case WireValue::Kind::Double: {
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.17g", v.d);
        out += buf;
        break;
      }
      case WireValue::Kind::Str:
        out += quoteJson(v.s);
        break;
    }
  }
  out.push_back('}');
  return out;
}

std::string getStr(const WireObject& o, const std::string& key,
                   const std::string& fallback) {
  auto it = o.find(key);
  if (it == o.end() || it->second.kind != WireValue::Kind::Str) {
    return fallback;
  }
  return it->second.s;
}

std::int64_t getInt(const WireObject& o, const std::string& key,
                    std::int64_t fallback) {
  auto it = o.find(key);
  if (it == o.end() || it->second.kind != WireValue::Kind::Int) {
    return fallback;
  }
  return it->second.i;
}

bool getBool(const WireObject& o, const std::string& key, bool fallback) {
  auto it = o.find(key);
  if (it == o.end() || it->second.kind != WireValue::Kind::Bool) {
    return fallback;
  }
  return it->second.b;
}

bool hasKey(const WireObject& o, const std::string& key) {
  return o.find(key) != o.end();
}

}  // namespace boosting::serve
