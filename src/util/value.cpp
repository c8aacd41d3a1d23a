#include "util/value.h"

#include <algorithm>
#include <stdexcept>

#include "util/hashing.h"

namespace boosting::util {

const Value::List& Value::listOf(const ListPtr& p) {
  static const List kEmpty;
  return p ? *p : kEmpty;
}

Value Value::set(List elems) {
  std::sort(elems.begin(), elems.end());
  elems.erase(std::unique(elems.begin(), elems.end()), elems.end());
  return Value(std::move(elems));
}

std::int64_t Value::asInt() const {
  if (const auto* p = std::get_if<std::int64_t>(&rep_)) return *p;
  throw std::logic_error("Value::asInt on non-int: " + str());
}

const std::string& Value::asStr() const {
  if (const auto* p = std::get_if<std::string>(&rep_)) return *p;
  throw std::logic_error("Value::asStr on non-string: " + str());
}

const Value::List& Value::asList() const {
  if (const auto* p = std::get_if<ListPtr>(&rep_)) return listOf(*p);
  throw std::logic_error("Value::asList on non-list: " + str());
}

std::string_view Value::tag() const {
  if (isStr()) return asStr();
  if (isList() && !asList().empty() && asList().front().isStr()) {
    return asList().front().asStr();
  }
  return {};
}

const Value& Value::at(std::size_t i) const {
  const List& xs = asList();
  if (i >= xs.size()) {
    throw std::logic_error("Value::at out of range on " + str());
  }
  return xs[i];
}

std::size_t Value::size() const {
  if (const auto* p = std::get_if<ListPtr>(&rep_)) return listOf(*p).size();
  return 0;
}

bool Value::setContains(const Value& v) const {
  const List& xs = asList();
  return std::binary_search(xs.begin(), xs.end(), v);
}

Value Value::setInsert(const Value& v) const {
  const List& cur = asList();
  const auto it = std::lower_bound(cur.begin(), cur.end(), v);
  if (it != cur.end() && *it == v) return *this;  // shares the payload
  List xs;
  xs.reserve(cur.size() + 1);
  xs.insert(xs.end(), cur.begin(), it);
  xs.push_back(v);
  xs.insert(xs.end(), it, cur.end());
  return Value(std::move(xs));
}

Value Value::setUnion(const Value& other) const {
  List out;
  const List& a = asList();
  const List& b = other.asList();
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return Value(std::move(out));
}

bool Value::operator==(const Value& other) const {
  if (rep_.index() != other.rep_.index()) return false;
  switch (kind()) {
    case Kind::Nil:
      return true;
    case Kind::Int:
      return std::get<std::int64_t>(rep_) == std::get<std::int64_t>(other.rep_);
    case Kind::Str:
      return std::get<std::string>(rep_) == std::get<std::string>(other.rep_);
    case Kind::List: {
      const ListPtr& a = std::get<ListPtr>(rep_);
      const ListPtr& b = std::get<ListPtr>(other.rep_);
      return a == b || listOf(a) == listOf(b);
    }
  }
  return false;
}

bool Value::operator<(const Value& other) const {
  if (rep_.index() != other.rep_.index()) {
    return rep_.index() < other.rep_.index();
  }
  switch (kind()) {
    case Kind::Nil:
      return false;
    case Kind::Int:
      return std::get<std::int64_t>(rep_) < std::get<std::int64_t>(other.rep_);
    case Kind::Str:
      return std::get<std::string>(rep_) < std::get<std::string>(other.rep_);
    case Kind::List: {
      const List& a = listOf(std::get<ListPtr>(rep_));
      const List& b = listOf(std::get<ListPtr>(other.rep_));
      return std::lexicographical_compare(a.begin(), a.end(), b.begin(),
                                          b.end());
    }
  }
  return false;
}

std::size_t Value::hash() const {
  std::size_t h = static_cast<std::size_t>(rep_.index()) * 0x9e3779b9u;
  switch (kind()) {
    case Kind::Nil:
      break;
    case Kind::Int:
      hashValue(h, std::get<std::int64_t>(rep_));
      break;
    case Kind::Str:
      hashValue(h, std::get<std::string>(rep_));
      break;
    case Kind::List:
      for (const Value& v : listOf(std::get<ListPtr>(rep_))) {
        hashCombine(h, v.hash());
      }
      break;
  }
  return h;
}

std::string Value::str() const {
  switch (kind()) {
    case Kind::Nil:
      return "nil";
    case Kind::Int:
      return std::to_string(std::get<std::int64_t>(rep_));
    case Kind::Str:
      return std::get<std::string>(rep_);
    case Kind::List: {
      std::string out = "(";
      const List& xs = listOf(std::get<ListPtr>(rep_));
      for (std::size_t i = 0; i < xs.size(); ++i) {
        if (i > 0) out += ' ';
        out += xs[i].str();
      }
      out += ')';
      return out;
    }
  }
  return "?";
}

Value sym(std::string tag) { return Value::list({Value(std::move(tag))}); }
Value sym(std::string tag, Value a) {
  return Value::list({Value(std::move(tag)), std::move(a)});
}
Value sym(std::string tag, Value a, Value b) {
  return Value::list({Value(std::move(tag)), std::move(a), std::move(b)});
}
Value sym(std::string tag, Value a, Value b, Value c) {
  return Value::list(
      {Value(std::move(tag)), std::move(a), std::move(b), std::move(c)});
}

}  // namespace boosting::util
