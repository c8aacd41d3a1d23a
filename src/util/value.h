// Value: the universal data model for the library.
//
// Sequential types (Section 2.1.2 of the paper) are defined over arbitrary
// value sets V, invocation sets invs, and response sets resps. Rather than
// templating every automaton on concrete payload types, the library uses a
// single recursive, immutable value model -- nil, 64-bit integers, strings
// (symbols), and ordered lists -- closed under equality, total ordering,
// and hashing. Sets are represented as sorted duplicate-free lists, which
// keeps set-valued states (e.g. the k-set-consensus value W, or
// failure-detector suspect sets) canonical and hashable.
//
// A list payload is one immutable shared node: copying a Value bumps a
// reference count instead of deep-copying the list, so the same
// ("decide" 1) record buffered in thousands of component states is stored
// once. Nothing mutates a node after construction (the API is const-only;
// "changing" a list builds a new one), and the reference counts are
// atomic, so Values may be shared freely across threads -- the served
// workers' states share payloads through the per-context memo.
//
// Invocations and responses follow a symbolic convention established by the
// built-in types, e.g. ("init", 0), ("decide", 1), ("write", 7), ("read"),
// ("bcast", m), ("rcv", m, i), ("suspect", {1,3}).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace boosting::util {

class Value {
 public:
  using List = std::vector<Value>;
  enum class Kind { Nil, Int, Str, List };

  // -- Construction ------------------------------------------------------
  Value() : rep_(std::monostate{}) {}
  Value(std::int64_t v) : rep_(v) {}           // NOLINT(google-explicit-constructor)
  Value(int v) : rep_(std::int64_t{v}) {}      // NOLINT(google-explicit-constructor)
  Value(std::string v) : rep_(std::move(v)) {} // NOLINT(google-explicit-constructor)
  Value(const char* v) : rep_(std::string(v)) {}  // NOLINT(google-explicit-constructor)
  Value(List v)                                // NOLINT(google-explicit-constructor)
      : rep_(v.empty() ? ListPtr()
                       : std::make_shared<const List>(std::move(v))) {}

  Value(const Value&) = default;
  Value(Value&&) noexcept = default;
  // Copy-then-move: variant's copy assignment destroys the current
  // alternative before reading the source, so `v = v.at(1)` (assigning a
  // value from its own list, whose last owner may be `v`) would read freed
  // memory. Aliasing like that is natural under the symbolic ("tag",
  // arg...) convention -- unwrapping a payload in place -- so make
  // assignment safe for it.
  Value& operator=(const Value& other) {
    Value tmp(other);
    rep_ = std::move(tmp.rep_);
    return *this;
  }
  Value& operator=(Value&&) noexcept = default;

  static Value nil() { return Value(); }
  static Value list(std::initializer_list<Value> xs) { return Value(List(xs)); }

  // A set is a sorted, duplicate-free list; canonical and order-insensitive.
  static Value set(List elems);
  static Value emptySet() { return Value(List{}); }

  // -- Inspection --------------------------------------------------------
  Kind kind() const { return static_cast<Kind>(rep_.index()); }
  bool isNil() const { return kind() == Kind::Nil; }
  bool isInt() const { return kind() == Kind::Int; }
  bool isStr() const { return kind() == Kind::Str; }
  bool isList() const { return kind() == Kind::List; }

  // Checked accessors; throw std::logic_error on kind mismatch so that
  // protocol bugs surface as exceptions rather than silent misreads.
  std::int64_t asInt() const;
  const std::string& asStr() const;
  const List& asList() const;

  // Convenience for the symbolic ("tag", arg...) convention: the tag of a
  // list whose head is a string, or the string itself; empty otherwise.
  // The view borrows from this Value -- no allocation in the transition
  // hot loop -- and is invalidated when the Value is destroyed/assigned.
  std::string_view tag() const;
  // The i-th element of a list value (checked).
  const Value& at(std::size_t i) const;
  std::size_t size() const;  // list length; 0 for non-lists

  // -- Set operations (on sorted-unique list representation) -------------
  bool setContains(const Value& v) const;
  Value setInsert(const Value& v) const;   // returns new set
  Value setUnion(const Value& other) const;

  // -- Equality / ordering / hashing --------------------------------------
  // Two lists sharing one payload node are equal without a walk.
  bool operator==(const Value& other) const;
  bool operator!=(const Value& other) const { return !(*this == other); }
  // Total order: Nil < Int < Str < List, then componentwise.
  bool operator<(const Value& other) const;

  std::size_t hash() const;
  std::string str() const;  // printable rendering, e.g. (decide 1)

 private:
  // The empty list holds no node (so it allocates nothing); a moved-from
  // list Value reads as the empty list for the same reason.
  using ListPtr = std::shared_ptr<const List>;
  static const List& listOf(const ListPtr& p);

  std::variant<std::monostate, std::int64_t, std::string, ListPtr> rep_;
};

// Build a symbolic record: sym("decide", 1) == ("decide" 1).
Value sym(std::string tag);
Value sym(std::string tag, Value a);
Value sym(std::string tag, Value a, Value b);
Value sym(std::string tag, Value a, Value b, Value c);

}  // namespace boosting::util

namespace std {
template <>
struct hash<boosting::util::Value> {
  size_t operator()(const boosting::util::Value& v) const { return v.hash(); }
};
}  // namespace std
