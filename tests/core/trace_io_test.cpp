// Trace serialization: value syntax round-trips, execution round-trips,
// witness files replay on a fresh system.
#include "sim/trace_io.h"

#include <gtest/gtest.h>

#include "analysis/adversary.h"
#include "processes/relay_consensus.h"
#include "sim/runner.h"

namespace boosting::sim {
namespace {

using ioa::Action;
using util::sym;
using util::Value;

void roundTrip(const Value& v) {
  TraceParseError err;
  auto parsed = parseValue(renderValue(v), &err);
  ASSERT_TRUE(parsed.has_value()) << renderValue(v) << ": " << err.str();
  EXPECT_EQ(*parsed, v) << renderValue(v);
}

TEST(TraceIO, ValueRoundTrips) {
  roundTrip(Value::nil());
  roundTrip(Value(0));
  roundTrip(Value(-42));
  roundTrip(Value(std::int64_t{1234567890123}));
  roundTrip(Value("read"));
  roundTrip(Value("test&set"));
  roundTrip(Value("with space"));
  roundTrip(Value("quote\"and\\slash"));
  roundTrip(Value(""));
  roundTrip(sym("decide", 1));
  roundTrip(sym("rcv", Value("m"), 2));
  roundTrip(Value::list({}));
  roundTrip(Value::list({Value::list({Value(1)}), Value::nil(),
                         Value("x y")}));
  roundTrip(Value::set({Value(3), Value(1)}));
}

TEST(TraceIO, NumericEdgeTokens) {
  // "nil" parses as nil, "-" alone as a symbol-free failure, digits as int.
  TraceParseError err;
  EXPECT_EQ(*parseValue("nil", &err), Value::nil());
  EXPECT_EQ(*parseValue("7", &err), Value(7));
  EXPECT_EQ(*parseValue("(a -1)", &err), sym("a", -1));
  EXPECT_EQ(err.line, 0u);  // no error recorded
}

TEST(TraceIO, ParseRejectsMalformedValues) {
  for (const char* text : {"(unclosed", "\"unterminated",
                           "a b" /* trailing garbage */, ""}) {
    TraceParseError err;
    EXPECT_FALSE(parseValue(text, &err).has_value()) << text;
    EXPECT_EQ(err.line, 1u) << text;
  }
}

TEST(TraceIO, ExecutionRoundTrips) {
  ioa::Execution e;
  e.append(Action::envInit(0, Value(1)));
  e.append(Action::invoke(0, 100, sym("init", 1)));
  e.append(Action::perform(0, 100));
  e.append(Action::respond(0, 100, sym("decide", 1)));
  e.append(Action::envDecide(0, sym("decide", 1)));
  e.append(Action::fail(1));
  e.append(Action::compute(2, 400));
  e.append(Action::procStep(1, Value("note")));

  const ExecutionParseResult parsed =
      parseExecutionDetailed(renderExecution(e));
  ASSERT_TRUE(parsed.ok()) << parsed.error.str();
  ASSERT_EQ(parsed.execution->size(), e.size());
  for (std::size_t i = 0; i < e.size(); ++i) {
    EXPECT_EQ(parsed.execution->actions()[i], e.actions()[i])
        << "action " << i;
  }
}

TEST(TraceIO, CommentsAndBlanksSkipped) {
  const std::string text =
      "# a comment\n\n   \nfail 2 -1 -1 nil\n# another\n";
  const ExecutionParseResult parsed = parseExecutionDetailed(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error.str();
  ASSERT_EQ(parsed.execution->size(), 1u);
  EXPECT_EQ(parsed.execution->actions()[0], Action::fail(2));
}

TEST(TraceIO, ParseRejectsUnknownKinds) {
  EXPECT_FALSE(parseExecutionDetailed("teleport 0 1 2 nil").ok());
  EXPECT_FALSE(parseExecutionDetailed("fail x -1 -1 nil").ok());
}

TEST(TraceIO, ParseErrorReportsLineColumnAndToken) {
  // The bad kind sits on line 3 (after a comment and a good line), at
  // column 1.
  const std::string text =
      "# header\n"
      "fail 2 -1 -1 nil\n"
      "frobnicate 0 1 2 nil\n";
  auto result = parseExecutionDetailed(text);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error.line, 3u);
  EXPECT_EQ(result.error.column, 1u);
  EXPECT_EQ(result.error.token, "frobnicate");
  EXPECT_EQ(result.error.message, "unknown action kind");
  EXPECT_EQ(result.error.str(),
            "line 3, column 1: unknown action kind 'frobnicate'");
}

TEST(TraceIO, ParseErrorOnNonIntegerField) {
  auto result = parseExecutionDetailed("fail x -1 -1 nil");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error.line, 1u);
  EXPECT_EQ(result.error.column, 6u);  // "x" starts at column 6
  EXPECT_EQ(result.error.token, "x");
  EXPECT_NE(result.error.message.find("endpoint"), std::string::npos);

  // A missing field names the first absent one.
  auto missing = parseExecutionDetailed("fail 2");
  ASSERT_FALSE(missing.ok());
  EXPECT_NE(missing.error.message.find("component"), std::string::npos);
}

TEST(TraceIO, ParseErrorOnBadPayload) {
  auto result = parseExecutionDetailed("invoke 0 100 -1 (unclosed");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error.line, 1u);
  EXPECT_GT(result.error.column, 16u);  // inside the payload, not the header
  EXPECT_NE(result.error.message.find("bad payload"), std::string::npos);
}

TEST(TraceIO, EmptyTraceDistinguishedFromParseError) {
  // Empty and comment-only documents are VALID zero-action executions...
  for (const char* text : {"", "# only a comment\n", "\n  \n# c\n"}) {
    auto result = parseExecutionDetailed(text);
    ASSERT_TRUE(result.ok()) << '"' << text << '"';
    EXPECT_EQ(result.execution->size(), 0u);
    EXPECT_EQ(result.error.line, 0u);  // no error recorded
    EXPECT_EQ(result.error.str(), "no error");
  }
  // ...while garbage is a hard error, not an empty execution.
  auto bad = parseExecutionDetailed("garbage\n");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.error.line, 1u);
}

TEST(TraceIO, ParseValueReportsColumn) {
  TraceParseError err;
  EXPECT_FALSE(parseValue("(a b", &err).has_value());
  EXPECT_EQ(err.line, 1u);
  EXPECT_EQ(err.message, "malformed value");

  TraceParseError trailing;
  EXPECT_FALSE(parseValue("7 junk", &trailing).has_value());
  EXPECT_EQ(trailing.line, 1u);
  EXPECT_EQ(trailing.column, 3u);
  EXPECT_EQ(trailing.token, "junk");
  EXPECT_EQ(trailing.message, "trailing input after value");
}

TEST(TraceIO, AdversaryWitnessRoundTripsAndReplays) {
  processes::RelaySystemSpec spec;
  spec.processCount = 2;
  spec.objectResilience = 0;
  spec.addScratchRegister = false;
  spec.policy = services::DummyPolicy::PreferDummy;
  auto sys = processes::buildRelayConsensusSystem(spec);
  analysis::AdversaryConfig cfg;
  cfg.claimedFailures = 1;
  auto report = analysis::analyzeConsensusCandidate(*sys, cfg);
  ASSERT_EQ(report.verdict,
            analysis::AdversaryReport::Verdict::TerminationViolation);

  // Serialize the witness, parse it back, replay on a fresh system.
  const ExecutionParseResult parsed =
      parseExecutionDetailed(renderExecution(report.witness));
  ASSERT_TRUE(parsed.ok()) << parsed.error.str();
  ASSERT_EQ(parsed.execution->size(), report.witness.size());
  ioa::SystemState s = sys->initialState();
  for (const Action& a : parsed.execution->actions()) {
    ASSERT_NO_THROW(sys->applyInPlace(s, a)) << a.str();
  }
  EXPECT_EQ(parsed.execution->failedEndpoints(), report.witnessFailures);
}

}  // namespace
}  // namespace boosting::sim
