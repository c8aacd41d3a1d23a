#include "util/value.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <unordered_set>
#include <utility>

namespace boosting::util {
namespace {

TEST(Value, DefaultIsNil) {
  Value v;
  EXPECT_TRUE(v.isNil());
  EXPECT_EQ(v.kind(), Value::Kind::Nil);
  EXPECT_EQ(v.str(), "nil");
}

TEST(Value, IntRoundTrip) {
  Value v(42);
  EXPECT_TRUE(v.isInt());
  EXPECT_EQ(v.asInt(), 42);
  EXPECT_EQ(v.str(), "42");
  EXPECT_EQ(Value(-7).asInt(), -7);
}

TEST(Value, StringRoundTrip) {
  Value v("hello");
  EXPECT_TRUE(v.isStr());
  EXPECT_EQ(v.asStr(), "hello");
  EXPECT_EQ(v.str(), "hello");
}

TEST(Value, ListRoundTrip) {
  Value v = Value::list({Value(1), Value("x"), Value::nil()});
  EXPECT_TRUE(v.isList());
  EXPECT_EQ(v.size(), 3u);
  EXPECT_EQ(v.at(0).asInt(), 1);
  EXPECT_EQ(v.at(1).asStr(), "x");
  EXPECT_TRUE(v.at(2).isNil());
  EXPECT_EQ(v.str(), "(1 x nil)");
}

TEST(Value, CheckedAccessorsThrowOnKindMismatch) {
  EXPECT_THROW(Value(1).asStr(), std::logic_error);
  EXPECT_THROW(Value("s").asInt(), std::logic_error);
  EXPECT_THROW(Value(1).asList(), std::logic_error);
  EXPECT_THROW(Value::nil().at(0), std::logic_error);
  EXPECT_THROW(Value::list({Value(1)}).at(1), std::logic_error);
}

TEST(Value, TagConvention) {
  EXPECT_EQ(sym("decide", 1).tag(), "decide");
  EXPECT_EQ(Value("read").tag(), "read");
  EXPECT_EQ(Value(5).tag(), "");
  EXPECT_EQ(Value::list({Value(1), Value(2)}).tag(), "");
}

TEST(Value, SymBuilders) {
  EXPECT_EQ(sym("read").str(), "(read)");
  EXPECT_EQ(sym("write", 3).str(), "(write 3)");
  EXPECT_EQ(sym("cas", 0, 1).str(), "(cas 0 1)");
  EXPECT_EQ(sym("rcv", Value("m"), 2, 3).str(), "(rcv m 2 3)");
}

TEST(Value, SetNormalizesOrderAndDuplicates) {
  Value a = Value::set({Value(3), Value(1), Value(3), Value(2)});
  EXPECT_EQ(a.str(), "(1 2 3)");
  Value b = Value::set({Value(2), Value(1), Value(3)});
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hash(), b.hash());
}

TEST(Value, SetContainsAndInsert) {
  Value s = Value::set({Value(1), Value(3)});
  EXPECT_TRUE(s.setContains(Value(1)));
  EXPECT_FALSE(s.setContains(Value(2)));
  Value s2 = s.setInsert(Value(2));
  EXPECT_EQ(s2.str(), "(1 2 3)");
  // Insert of an existing element returns an equal set.
  EXPECT_EQ(s.setInsert(Value(3)), s);
  // Original is unchanged (value semantics).
  EXPECT_EQ(s.str(), "(1 3)");
}

TEST(Value, SetUnion) {
  Value a = Value::set({Value(1), Value(2)});
  Value b = Value::set({Value(2), Value(4)});
  EXPECT_EQ(a.setUnion(b).str(), "(1 2 4)");
  EXPECT_EQ(a.setUnion(Value::emptySet()), a);
  EXPECT_EQ(Value::emptySet().setUnion(b), b);
}

TEST(Value, TotalOrderAcrossKinds) {
  // Nil < Int < Str < List.
  EXPECT_LT(Value::nil(), Value(0));
  EXPECT_LT(Value(99), Value("a"));
  EXPECT_LT(Value("zzz"), Value::list({}));
}

TEST(Value, TotalOrderWithinKinds) {
  EXPECT_LT(Value(1), Value(2));
  EXPECT_LT(Value("a"), Value("b"));
  EXPECT_LT(Value::list({Value(1)}), Value::list({Value(1), Value(0)}));
  EXPECT_LT(Value::list({Value(1), Value(0)}), Value::list({Value(2)}));
  // Irreflexivity.
  EXPECT_FALSE(Value(1) < Value(1));
}

TEST(Value, EqualityDistinguishesKinds) {
  EXPECT_NE(Value(0), Value::nil());
  EXPECT_NE(Value(0), Value("0"));
  EXPECT_NE(Value::list({}), Value::nil());
}

TEST(Value, HashStableAndUsableInUnorderedSet) {
  std::unordered_set<Value> set;
  set.insert(Value(1));
  set.insert(Value("1"));
  set.insert(Value::list({Value(1)}));
  set.insert(Value(1));  // duplicate
  EXPECT_EQ(set.size(), 3u);
  EXPECT_TRUE(set.count(Value(1)));
}

TEST(Value, NestedListsCompareStructurally) {
  Value a = Value::list({sym("decide", 1), Value::list({Value(2)})});
  Value b = Value::list({sym("decide", 1), Value::list({Value(2)})});
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hash(), b.hash());
  Value c = Value::list({sym("decide", 0), Value::list({Value(2)})});
  EXPECT_NE(a, c);
}

TEST(Value, SelfAliasingAssignmentUnwrapsInPlace) {
  // v = v.at(1) assigns from a reference into v's own list -- the natural
  // way to unwrap a ("tag", arg) payload in place. A naive variant
  // copy-assign destroys the list before reading the element.
  Value v = sym("init", 7);
  v = v.at(1);
  EXPECT_EQ(v, Value(7));

  Value nested = sym("wrap", Value::list({Value(1), Value(2)}));
  nested = nested.at(1);
  EXPECT_EQ(nested, Value::list({Value(1), Value(2)}));

  Value self = sym("x", 3);
  self = self;  // NOLINT(clang-diagnostic-self-assign-overloaded)
  EXPECT_EQ(self, sym("x", 3));
}

TEST(Value, CopiedListSharesItsPayload) {
  const Value a = sym("decide", Value::list({Value(1), Value("x")}));
  const Value b = a;  // NOLINT(performance-unnecessary-copy-initialization)
  EXPECT_EQ(&a.asList(), &b.asList());
  Value c;
  c = b;
  EXPECT_EQ(&c.asList(), &a.asList());
  // Elements are shared too: the nested list is one node.
  EXPECT_EQ(&a.at(1).asList(), &c.at(1).asList());
}

TEST(Value, SharedAndRebuiltValuesAgree) {
  const Value built = Value::list({sym("init", 0), Value::set({Value(2)})});
  // NOLINTNEXTLINE(performance-unnecessary-copy-initialization)
  const Value shared = built;
  const Value rebuilt = Value::list({sym("init", 0), Value::set({Value(2)})});
  ASSERT_NE(&built.asList(), &rebuilt.asList());
  for (const Value* other : {&shared, &rebuilt}) {
    EXPECT_EQ(built, *other);
    EXPECT_FALSE(built < *other);
    EXPECT_FALSE(*other < built);
    EXPECT_EQ(built.hash(), other->hash());
    EXPECT_EQ(built.str(), other->str());
  }
  const Value bigger = Value::list({sym("init", 1), Value::set({Value(2)})});
  EXPECT_NE(shared, bigger);
  EXPECT_NE(rebuilt, bigger);
  EXPECT_LT(shared, bigger);
  EXPECT_LT(rebuilt, bigger);
}

TEST(Value, MovedFromListReadsAsEmptyList) {
  Value a = sym("x", 1);
  const Value b = std::move(a);
  EXPECT_EQ(b, sym("x", 1));
  // NOLINTBEGIN(bugprone-use-after-move)
  ASSERT_TRUE(a.isList());
  EXPECT_EQ(a.size(), 0u);
  EXPECT_EQ(a, Value::emptySet());
  EXPECT_EQ(a.hash(), Value::emptySet().hash());
  EXPECT_EQ(a.str(), "()");
  // NOLINTEND(bugprone-use-after-move)
}

TEST(Value, SetOperationsLeaveTheirOperandsUnchanged) {
  const Value s = Value::set({Value(1), Value(3)});
  const Value t = Value::set({Value(2), Value(3)});
  const Value::List* sPayload = &s.asList();
  EXPECT_EQ(s.setInsert(Value(2)).str(), "(1 2 3)");
  EXPECT_EQ(s.setInsert(Value(0)).str(), "(0 1 3)");
  EXPECT_EQ(s.setInsert(Value(9)).str(), "(1 3 9)");
  EXPECT_EQ(s.setUnion(t).str(), "(1 2 3)");
  EXPECT_EQ(t.setUnion(s).str(), "(1 2 3)");
  EXPECT_EQ(s.str(), "(1 3)");
  EXPECT_EQ(t.str(), "(2 3)");
  EXPECT_EQ(&s.asList(), sPayload);
  // Inserting a member returns the operand itself, payload and all.
  EXPECT_EQ(&s.setInsert(Value(3)).asList(), sPayload);
}

TEST(Value, HashIsPinned) {
  // The symmetry quotient's colour sort keys on process-slot hashes, which
  // fold in Value::hash, so these must not drift. String hashes go
  // through std::hash<std::string>: the pins are a 64-bit libstdc++'s.
#if !defined(__GLIBCXX__)
  GTEST_SKIP() << "hash pins are for libstdc++";
#endif
  if (sizeof(std::size_t) != 8) GTEST_SKIP() << "hash pins are 64-bit";
  const std::pair<Value, std::uint64_t> pins[] = {
      {Value::nil(), 0x0ull},
      {Value(0), 0xfb91a703f08eb2cdull},
      {Value(-7), 0xa08c678390bbaa2aull},
      {Value("init"), 0x75c1e62fd2f1e27aull},
      {Value::emptySet(), 0x1daa66d2bull},
      {sym("init", 0), 0xe28a6a92490f398cull},
      {sym("decide", 1), 0xf36b1a0c385158b7ull},
      {Value::list({sym("decide", 1), Value::list({Value(2), Value::nil()})}),
       0x16bdd0429258179full},
      {sym("rcv", Value("m"), 2, 3), 0xbcdc97eac08740e8ull},
      {Value::set({Value(3), Value(1), sym("x", Value::emptySet())}),
       0xa91b70cd044b7d62ull},
  };
  for (const auto& [v, h] : pins) {
    EXPECT_EQ(static_cast<std::uint64_t>(v.hash()), h) << v.str();
  }
}

TEST(Value, UsableInStdSet) {
  std::set<Value> s;
  s.insert(Value(2));
  s.insert(Value(1));
  s.insert(sym("x"));
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s.begin()->asInt(), 1);
}

}  // namespace
}  // namespace boosting::util
