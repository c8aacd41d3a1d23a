#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <memory>

#include "serve/candidates.h"
#include "serve/service.h"
#include "serve/wire.h"

namespace boosting::serve {

bool parseListenSpec(const std::string& text, ListenSpec* out,
                     std::string* error) {
  *out = ListenSpec{};
  auto fail = [&](const std::string& msg) {
    if (error) *error = msg;
    return false;
  };
  if (text == "stdio") {
    out->kind = ListenSpec::Kind::Stdio;
    return true;
  }
  if (text.rfind("tcp:", 0) == 0) {
    std::string rest = text.substr(4);
    std::string portStr = rest;
    const auto colon = rest.rfind(':');
    if (colon != std::string::npos) {
      out->host = rest.substr(0, colon);
      portStr = rest.substr(colon + 1);
      if (out->host.empty()) return fail("--listen: tcp host must be non-empty");
    }
    int port = 0;
    const char* b = portStr.data();
    const char* e = b + portStr.size();
    auto [p, ec] = std::from_chars(b, e, port);
    if (ec != std::errc() || p != e || b == e) {
      return fail("--listen: tcp port is not an integer: '" + portStr + "'");
    }
    if (port < 0 || port > 65535) {
      return fail("--listen: tcp port " + portStr +
                  " out of range [0, 65535]");
    }
    out->kind = ListenSpec::Kind::Tcp;
    out->port = port;
    return true;
  }
  if (text.rfind("unix:", 0) == 0) {
    out->path = text.substr(5);
    if (out->path.empty()) {
      return fail("--listen: unix socket path must be non-empty");
    }
    if (out->path.size() >= sizeof(sockaddr_un{}.sun_path)) {
      return fail("--listen: unix socket path too long");
    }
    out->kind = ListenSpec::Kind::Unix;
    return true;
  }
  return fail("--listen: expected stdio|tcp:[HOST:]PORT|unix:PATH, got '" +
              text + "'");
}

namespace {

struct Conn {
  int inFd = -1;
  int outFd = -1;
  bool stdio = false;
  bool inOpen = true;
  bool outOpen = true;
  // Jobs submitted on this connection whose result event has not been
  // written yet. A half-closed socket (client sent EOF, still reading)
  // stays alive until this drains, mirroring the stdio EOF semantics.
  std::uint64_t pending = 0;
  std::string inBuf;
};

// Blocking line write: the protocol is small local lines, so a write loop
// (retrying EINTR) is simpler and sufficient; a dead peer just marks the
// connection's write side closed (SIGPIPE is ignored).
void writeLine(Conn& c, const WireObject& obj) {
  if (!c.outOpen) return;
  std::string data = writeWireObject(obj);
  data.push_back('\n');
  const char* p = data.data();
  std::size_t left = data.size();
  while (left > 0) {
    const ssize_t w = ::write(c.outFd, p, left);
    if (w < 0) {
      if (errno == EINTR) continue;
      c.outOpen = false;
      return;
    }
    p += static_cast<std::size_t>(w);
    left -= static_cast<std::size_t>(w);
  }
}

// Every key a `submit` request may carry; handleSubmit refuses the rest.
// `threads` is accepted and ignored (exploration is serial): it is kept
// only because certbench/run.py still sends it with its one-shot specs.
const char* const kSubmitKeys[] = {
    "op",      "id",       "candidate", "n",   "f",       "claim",
    "threads", "priority", "symmetry",  "por", "witness", "progress"};

WireObject errorEvent(const std::string& message, const std::string& id = "") {
  WireObject o;
  o["ev"] = WireValue::ofStr("error");
  if (!id.empty()) o["id"] = WireValue::ofStr(id);
  o["error"] = WireValue::ofStr(message);
  return o;
}

// Strict typed extraction for present keys: a present-but-mistyped field is
// a protocol error, not a silent default.
bool extractInt(const WireObject& o, const char* key, std::int64_t* out,
                std::string* error) {
  auto it = o.find(key);
  if (it == o.end()) return true;
  if (it->second.kind != WireValue::Kind::Int) {
    *error = std::string(key) + ": expected an integer";
    return false;
  }
  if (it->second.i < INT32_MIN || it->second.i > INT32_MAX) {
    *error = std::string(key) + ": value out of range";
    return false;
  }
  *out = it->second.i;
  return true;
}

bool extractBool(const WireObject& o, const char* key, bool* out,
                 std::string* error) {
  auto it = o.find(key);
  if (it == o.end()) return true;
  if (it->second.kind != WireValue::Kind::Bool) {
    *error = std::string(key) + ": expected a boolean";
    return false;
  }
  *out = it->second.b;
  return true;
}

bool extractStr(const WireObject& o, const char* key, std::string* out,
                std::string* error) {
  auto it = o.find(key);
  if (it == o.end()) return true;
  if (it->second.kind != WireValue::Kind::Str) {
    *error = std::string(key) + ": expected a string";
    return false;
  }
  *out = it->second.s;
  return true;
}

class Server {
 public:
  explicit Server(const ServerConfig& cfg)
      : cfg_(cfg),
        service_(AnalysisService::Config{cfg.maxConcurrent, cfg.cacheContexts,
                                         cfg.metrics}) {}

  ~Server() {
    for (int fd : listenerFds_) ::close(fd);
    for (const std::string& path : unixPaths_) ::unlink(path.c_str());
    for (auto& c : conns_) {
      if (!c->stdio && c->inFd >= 0) ::close(c->inFd);
    }
  }

  int run() {
    std::signal(SIGPIPE, SIG_IGN);
    for (const ListenSpec& spec : cfg_.listens) {
      if (!openListener(spec)) return 2;
    }
    loop();
    if (cfg_.metrics && !cfg_.metricsJsonPath.empty()) {
      if (!cfg_.metrics->writeMetricsJson(cfg_.metricsJsonPath,
                                          "boosting_served")) {
        return 2;
      }
    }
    return 0;
  }

 private:
  bool openListener(const ListenSpec& spec) {
    switch (spec.kind) {
      case ListenSpec::Kind::Stdio: {
        auto c = std::make_shared<Conn>();
        c->inFd = STDIN_FILENO;
        c->outFd = STDOUT_FILENO;
        c->stdio = true;
        conns_.push_back(std::move(c));
        haveStdio_ = true;
        return true;
      }
      case ListenSpec::Kind::Tcp: {
        const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd < 0) {
          std::fprintf(stderr, "--listen: socket: %s\n", std::strerror(errno));
          return false;
        }
        int one = 1;
        ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(static_cast<std::uint16_t>(spec.port));
        if (::inet_pton(AF_INET, spec.host.c_str(), &addr.sin_addr) != 1) {
          std::fprintf(stderr, "--listen: bad tcp host '%s'\n",
                       spec.host.c_str());
          ::close(fd);
          return false;
        }
        if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0 ||
            ::listen(fd, 16) < 0) {
          std::fprintf(stderr, "--listen: tcp %s:%d: %s\n", spec.host.c_str(),
                       spec.port, std::strerror(errno));
          ::close(fd);
          return false;
        }
        sockaddr_in bound{};
        socklen_t blen = sizeof bound;
        ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &blen);
        // The ephemeral-port announcement the load driver scrapes.
        std::fprintf(stderr, "boosting_served: listening on %s:%d\n",
                     spec.host.c_str(), ntohs(bound.sin_port));
        std::fflush(stderr);
        listenerFds_.push_back(fd);
        return true;
      }
      case ListenSpec::Kind::Unix: {
        const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0) {
          std::fprintf(stderr, "--listen: socket: %s\n", std::strerror(errno));
          return false;
        }
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::snprintf(addr.sun_path, sizeof addr.sun_path, "%s",
                      spec.path.c_str());
        ::unlink(spec.path.c_str());
        if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0 ||
            ::listen(fd, 16) < 0) {
          std::fprintf(stderr, "--listen: unix %s: %s\n", spec.path.c_str(),
                       std::strerror(errno));
          ::close(fd);
          return false;
        }
        std::fprintf(stderr, "boosting_served: listening on unix:%s\n",
                     spec.path.c_str());
        std::fflush(stderr);
        listenerFds_.push_back(fd);
        unixPaths_.push_back(spec.path);
        return true;
      }
    }
    return false;
  }

  void loop() {
    while (true) {
      // pfds[0] is the service's wake channel, so no timeout is needed.
      std::vector<pollfd> pfds{pollfd{service_.wakeFd(), POLLIN, 0}};
      std::vector<int> listenerIdx{-1};  // pfds index -> listenerFds_ index
      std::vector<std::size_t> connIdx{SIZE_MAX};  // pfds index -> conns_
      for (std::size_t i = 0; i < listenerFds_.size(); ++i) {
        pfds.push_back(pollfd{listenerFds_[i], POLLIN, 0});
        listenerIdx.push_back(static_cast<int>(i));
        connIdx.push_back(SIZE_MAX);
      }
      for (std::size_t i = 0; i < conns_.size(); ++i) {
        if (!conns_[i]->inOpen) continue;
        pfds.push_back(pollfd{conns_[i]->inFd, POLLIN, 0});
        listenerIdx.push_back(-1);
        connIdx.push_back(i);
      }
      ::poll(pfds.data(), pfds.size(), -1);
      if (pfds[0].revents & POLLIN) service_.clearWake();
      for (std::size_t p = 1; p < pfds.size(); ++p) {
        if (!(pfds[p].revents & (POLLIN | POLLHUP | POLLERR))) continue;
        if (listenerIdx[p] >= 0) {
          const int nfd = ::accept(pfds[p].fd, nullptr, nullptr);
          if (nfd >= 0) {
            auto c = std::make_shared<Conn>();
            c->inFd = nfd;
            c->outFd = nfd;
            conns_.push_back(std::move(c));
          }
          continue;
        }
        readConn(conns_[connIdx[p]]);
      }
      // After all input: a cancel in its submit's burst finalizes it unrun.
      const std::size_t live = service_.tick();
      // Reap sockets that are done: read side closed AND nothing left to
      // deliver (either the pending results drained or the write side died
      // too). Their jobs keep running; late writes hit the outOpen check.
      conns_.erase(std::remove_if(conns_.begin(), conns_.end(),
                                  [](const std::shared_ptr<Conn>& c) {
                                    if (c->stdio || c->inOpen) return false;
                                    if (c->pending != 0 && c->outOpen)
                                      return false;
                                    if (c->inFd >= 0) ::close(c->inFd);
                                    c->inFd = -1;
                                    c->outOpen = false;
                                    return true;
                                  }),
                   conns_.end());
      if (shuttingDown_ && live == 0) break;
      if (cfg_.maxJobs != 0 && accepted_ >= cfg_.maxJobs && live == 0) break;
    }
  }

  void readConn(const std::shared_ptr<Conn>& c) {
    char buf[4096];
    const ssize_t n = ::read(c->inFd, buf, sizeof buf);
    if (n > 0) {
      c->inBuf.append(buf, static_cast<std::size_t>(n));
      std::size_t pos = 0;
      while ((pos = c->inBuf.find('\n')) != std::string::npos) {
        std::string line = c->inBuf.substr(0, pos);
        c->inBuf.erase(0, pos + 1);
        if (!line.empty() && line.back() == '\r') line.pop_back();
        if (!line.empty()) handleLine(c, line);
      }
      return;
    }
    if (n < 0 && errno == EINTR) return;
    // EOF (or a hard error). Stdin EOF is an implicit drain-shutdown; the
    // write side stays open so pending results still reach the client.
    // Sockets get the same treatment: a half-close (SHUT_WR) means "done
    // submitting, still reading" — the connection is reaped only once its
    // outstanding results have been written.
    c->inOpen = false;
    if (c->stdio) shuttingDown_ = true;
  }

  void handleLine(const std::shared_ptr<Conn>& c, const std::string& line) {
    WireObject req;
    std::string parseErr;
    if (!parseWireObject(line, &req, &parseErr)) {
      writeLine(*c, errorEvent("parse: " + parseErr));
      return;
    }
    const std::string op = getStr(req, "op");
    if (op == "submit") {
      handleSubmit(c, req);
    } else if (op == "cancel" || op == "pause" || op == "resume") {
      const std::string id = getStr(req, "id");
      bool ok = false;
      if (op == "cancel") ok = service_.cancel(id);
      if (op == "pause") ok = service_.pause(id);
      if (op == "resume") ok = service_.resume(id);
      if (ok) {
        WireObject o;
        o["ev"] = WireValue::ofStr("ack");
        o["op"] = WireValue::ofStr(op);
        o["id"] = WireValue::ofStr(id);
        writeLine(*c, o);
      } else {
        writeLine(*c, errorEvent(op + ": unknown or finished job id", id));
      }
    } else if (op == "status") {
      std::size_t queued = 0, running = 0;
      const auto jobs = service_.liveJobs();
      for (const auto& j : jobs) {
        WireObject o;
        o["ev"] = WireValue::ofStr("job");
        o["id"] = WireValue::ofStr(j.id);
        o["candidate"] = WireValue::ofStr(j.candidate);
        o["state"] = WireValue::ofStr(jobStateName(j.state));
        o["paused"] = WireValue::ofBool(j.paused);
        o["priority"] = WireValue::ofInt(j.priority);
        writeLine(*c, o);
        if (j.state == JobState::Queued) ++queued;
        if (j.state == JobState::Running) ++running;
      }
      WireObject o;
      o["ev"] = WireValue::ofStr("status");
      o["live"] = WireValue::ofInt(static_cast<std::int64_t>(jobs.size()));
      o["queued"] = WireValue::ofInt(static_cast<std::int64_t>(queued));
      o["running"] = WireValue::ofInt(static_cast<std::int64_t>(running));
      writeLine(*c, o);
    } else if (op == "stats") {
      const auto s = service_.cacheStats();
      WireObject o;
      o["ev"] = WireValue::ofStr("stats");
      o["submitted"] =
          WireValue::ofInt(static_cast<std::int64_t>(service_.submitted()));
      o["cache_builds"] = WireValue::ofInt(static_cast<std::int64_t>(s.builds));
      o["cache_reuses"] = WireValue::ofInt(static_cast<std::int64_t>(s.reuses));
      o["cache_bypasses"] =
          WireValue::ofInt(static_cast<std::int64_t>(s.bypasses));
      o["cache_evictions"] =
          WireValue::ofInt(static_cast<std::int64_t>(s.evictions));
      o["cache_size"] =
          WireValue::ofInt(static_cast<std::int64_t>(service_.cacheSize()));
      writeLine(*c, o);
    } else if (op == "ping") {
      WireObject o;
      o["ev"] = WireValue::ofStr("pong");
      writeLine(*c, o);
    } else if (op == "shutdown") {
      const std::string mode = getStr(req, "mode", "drain");
      if (mode != "drain" && mode != "abort") {
        writeLine(*c, errorEvent("shutdown: mode must be drain|abort"));
        return;
      }
      if (mode == "abort") service_.cancelAll();
      shuttingDown_ = true;
      WireObject o;
      o["ev"] = WireValue::ofStr("ack");
      o["op"] = WireValue::ofStr("shutdown");
      writeLine(*c, o);
    } else {
      writeLine(*c, errorEvent(op.empty() ? "missing op" : "unknown op '" +
                                                               op + "'"));
    }
  }

  void handleSubmit(const std::shared_ptr<Conn>& c, const WireObject& req) {
    const std::string id = getStr(req, "id");
    if (shuttingDown_) {
      writeLine(*c, errorEvent("server is shutting down", id));
      return;
    }
    if (cfg_.maxJobs != 0 && accepted_ >= cfg_.maxJobs) {
      writeLine(*c, errorEvent("job limit reached (" +
                                   std::to_string(cfg_.maxJobs) + ")",
                               id));
      return;
    }
    // A misspelled or retired key must not silently run at the defaults.
    for (const auto& entry : req) {
      if (std::find(std::begin(kSubmitKeys), std::end(kSubmitKeys),
                    entry.first) == std::end(kSubmitKeys)) {
        writeLine(*c, errorEvent("submit: unknown key '" + entry.first + "'",
                                 id));
        return;
      }
    }
    JobSpec spec;
    std::string err;
    std::int64_t n = spec.n, f = spec.f, claim = spec.claim, priority = 0,
                 ignoredThreads = 1;
    std::string symmetry = "auto", por = "auto";
    bool ok = extractStr(req, "id", &spec.id, &err) &&
              extractStr(req, "candidate", &spec.candidate, &err) &&
              extractInt(req, "n", &n, &err) &&
              extractInt(req, "f", &f, &err) &&
              extractInt(req, "claim", &claim, &err) &&
              extractInt(req, "threads", &ignoredThreads, &err) &&
              extractInt(req, "priority", &priority, &err) &&
              extractStr(req, "symmetry", &symmetry, &err) &&
              extractStr(req, "por", &por, &err) &&
              extractBool(req, "witness", &spec.wantWitness, &err) &&
              extractBool(req, "progress", &spec.progress, &err);
    ok = ok && parseMode("symmetry", symmetry, &spec.symmetry, &err) &&
         parseMode("por", por, &spec.por, &err);
    if (!ok) {
      writeLine(*c, errorEvent(err, id));
      return;
    }
    spec.n = static_cast<int>(n);
    spec.f = static_cast<int>(f);
    spec.claim = static_cast<int>(claim);
    spec.priority = static_cast<int>(priority);

    std::shared_ptr<Conn> conn = c;
    auto onResult = [conn](const JobResult& r) {
      if (conn->pending > 0) --conn->pending;
      WireObject o;
      o["ev"] = WireValue::ofStr("result");
      o["id"] = WireValue::ofStr(r.id);
      o["status"] = WireValue::ofStr(jobStateName(r.state));
      if (!r.error.empty()) o["error"] = WireValue::ofStr(r.error);
      o["summary"] = WireValue::ofStr(r.summary);
      o["states"] = WireValue::ofInt(static_cast<std::int64_t>(r.states));
      o["witness_actions"] =
          WireValue::ofInt(static_cast<std::int64_t>(r.witnessActions));
      if (!r.witness.empty()) o["witness"] = WireValue::ofStr(r.witness);
      o["cache"] = WireValue::ofStr(cacheOutcomeName(r.cache));
      o["wall_ms"] = WireValue::ofDouble(r.wallMs);
      o["exit_code"] = WireValue::ofInt(r.exitCode);
      writeLine(*conn, o);
    };
    AnalysisService::OnProgress onProgress;
    if (spec.progress) {
      onProgress = [conn](const std::string& jobId, std::uint64_t count) {
        WireObject o;
        o["ev"] = WireValue::ofStr("progress");
        o["id"] = WireValue::ofStr(jobId);
        o["expansions"] = WireValue::ofInt(static_cast<std::int64_t>(count));
        writeLine(*conn, o);
      };
    }
    if (auto rejected =
            service_.submit(spec, std::move(onResult), std::move(onProgress))) {
      writeLine(*c, errorEvent(*rejected, spec.id));
      return;
    }
    ++accepted_;
    ++c->pending;
    WireObject o;
    o["ev"] = WireValue::ofStr("ack");
    o["id"] = WireValue::ofStr(spec.id);
    writeLine(*c, o);
  }

  ServerConfig cfg_;
  AnalysisService service_;
  std::vector<int> listenerFds_;
  std::vector<std::string> unixPaths_;
  std::vector<std::shared_ptr<Conn>> conns_;
  bool haveStdio_ = false;
  bool shuttingDown_ = false;
  std::uint64_t accepted_ = 0;
};

}  // namespace

int runServer(const ServerConfig& cfg) {
  Server server(cfg);
  return server.run();
}

}  // namespace boosting::serve
