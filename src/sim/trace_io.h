// Trace (de)serialization: write witness executions to a line-oriented
// text format and load them back for replay.
//
// The adversary engine's product is an execution -- a counterexample a
// human or another tool should be able to inspect, archive, and re-run.
// The format is one action per line:
//
//     <kind> <endpoint> <component> <gtask> <payload>
//
// with the payload in the Value s-expression syntax (nil, 64-bit integers,
// bare or quoted symbols, parenthesised lists), e.g.
//
//     init 0 -1 -1 1
//     invoke 0 100 -1 (init 1)
//     perform 0 100 -1 nil
//     fail 1 -1 -1 nil
//
// Lines starting with '#' are comments. parseValue/renderValue are exposed
// because several tools (the DOT exporter, loggers) want the same syntax.
#pragma once

#include <optional>
#include <string>

#include "ioa/execution.h"

namespace boosting::sim {

// Diagnostic for a rejected trace: 1-based line and column of the first
// offense, the offending token (possibly truncated), and a human message.
// line == 0 means "no error recorded".
struct TraceParseError {
  std::size_t line = 0;
  std::size_t column = 0;
  std::string token;
  std::string message;

  // "line 3, column 7: unknown action kind 'frob'"
  std::string str() const;
};

// -- Value syntax --------------------------------------------------------
std::string renderValue(const util::Value& v);
// Parses a single value; returns nullopt on syntax errors, and reports
// where the value syntax broke in `error` when it is non-null (line is
// always 1).
std::optional<util::Value> parseValue(const std::string& text,
                                      TraceParseError* error);

// -- Executions ----------------------------------------------------------
std::string renderExecution(const ioa::Execution& exec);

// Parse outcome that distinguishes "parsed an execution -- possibly with
// zero actions" (ok()) from "rejected the input at error.line/column".
struct ExecutionParseResult {
  std::optional<ioa::Execution> execution;
  TraceParseError error;

  bool ok() const { return execution.has_value(); }
};
ExecutionParseResult parseExecutionDetailed(const std::string& text);

}  // namespace boosting::sim
