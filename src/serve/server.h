// The transport layer of boosting_served: a single-threaded poll() event
// loop speaking the line-delimited flat-JSON protocol (serve/wire.h) over
// any mix of stdio, local TCP and unix-domain listeners, driving one
// AnalysisService. The loop polls its listeners, its connections and the
// service's wake channel with no timeout, so it sleeps until a client
// writes or a job finishes or reports progress; each wakeup handles all
// readable input and then runs one scheduler tick.
//
// Protocol (one request object per line; every reply is one event object
// per line, discriminated by "ev"):
//
//   {"op":"submit","id":"j1","candidate":"relay","n":3,"f":1, ...}
//       -> {"ev":"ack","id":"j1"}            accepted
//       -> {"ev":"error","id":"j1","error":...}  rejected
//       ... later, on the submitting connection:
//       -> {"ev":"progress","id":"j1","expansions":N}   (when "progress":true)
//       -> {"ev":"result","id":"j1","status":"done","summary":...,
//           "states":N,"witness_actions":N,"cache":"warm|cold|bypass",
//           "wall_ms":...,"exit_code":0|1[,"witness":...][,"error":...]}
//   {"op":"cancel","id":"j1"} / {"op":"pause",...} / {"op":"resume",...}
//       -> {"ev":"ack","op":"cancel","id":"j1"} or {"ev":"error",...}
//   {"op":"status"}   -> one {"ev":"job",...} line per live job, then
//                        {"ev":"status","live":N,"queued":N,"running":N}
//   {"op":"stats"}    -> {"ev":"stats","submitted":N,"cache_builds":N,...}
//   {"op":"ping"}     -> {"ev":"pong"}
//   {"op":"shutdown","mode":"drain"|"abort"}
//       -> {"ev":"ack","op":"shutdown"}; drain finishes live jobs first,
//          abort cancels them; either way the process then exits 0.
//
// End-of-input on stdin (when a stdio listener is configured) is an
// implicit drain-shutdown, which makes `printf '...' | boosting_served`
// a complete session. Closing a TCP/unix connection leaves its jobs
// running; their results are dropped.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/registry.h"

namespace boosting::serve {

// A parsed --listen specification.
struct ListenSpec {
  enum class Kind { Stdio, Tcp, Unix };
  Kind kind = Kind::Stdio;
  std::string host = "127.0.0.1";  // Tcp
  int port = 0;                    // Tcp; 0 = ephemeral (printed to stderr)
  std::string path;                // Unix
};

// Parse "stdio" | "tcp:PORT" | "tcp:HOST:PORT" | "unix:PATH". False with a
// flag-style diagnostic in *error on malformed specs (bad port, empty
// path, unknown scheme).
bool parseListenSpec(const std::string& text, ListenSpec* out,
                     std::string* error);

struct ServerConfig {
  std::vector<ListenSpec> listens;  // at least one
  unsigned maxConcurrent = 1;
  std::size_t cacheContexts = 8;
  // Accepted-submit cap (0 = unlimited). Once reached, further submits are
  // rejected; the server exits after the last accepted job finishes.
  std::uint64_t maxJobs = 0;
  obs::Registry* metrics = nullptr;
  std::string metricsJsonPath;  // written on exit when non-empty
};

// Run the server until shutdown; returns the process exit code. Blocks the
// calling thread (which becomes the driving thread of the service).
int runServer(const ServerConfig& cfg);

}  // namespace boosting::serve
