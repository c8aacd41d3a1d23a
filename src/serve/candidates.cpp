#include "serve/candidates.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "processes/flooding_consensus.h"
#include "processes/relay_consensus.h"
#include "processes/rotating_consensus.h"
#include "processes/tob_consensus.h"

namespace boosting::serve {

bool isKnownCandidate(const std::string& candidate) {
  return candidate == "relay" || candidate == "bridge" ||
         candidate == "tob" || candidate == "flooding" ||
         candidate == "single-fd";
}

std::unique_ptr<ioa::System> buildCandidateSystem(const std::string& candidate,
                                                  int n, int f,
                                                  std::string* error) {
  const auto policy = services::DummyPolicy::PreferDummy;
  if (candidate == "relay") {
    processes::RelaySystemSpec spec;
    spec.processCount = n;
    spec.objectResilience = f;
    spec.policy = policy;
    return processes::buildRelayConsensusSystem(spec);
  }
  if (candidate == "bridge") {
    processes::BridgeSystemSpec spec;
    spec.processCount = n;
    spec.bridgeEndpoint = n / 2;
    spec.objectResilience = f;
    spec.policy = policy;
    return processes::buildBridgeConsensusSystem(spec);
  }
  if (candidate == "tob") {
    processes::TOBConsensusSpec spec;
    spec.processCount = n;
    spec.serviceResilience = f;
    spec.policy = policy;
    return processes::buildTOBConsensusSystem(spec);
  }
  if (candidate == "flooding") {
    processes::FloodingConsensusSpec spec;
    spec.processCount = n;
    spec.channelResilience = f;
    spec.policy = policy;
    return processes::buildFloodingConsensusSystem(spec);
  }
  if (candidate == "single-fd") {
    processes::SingleFDConsensusSpec spec;
    spec.processCount = n;
    spec.fdResilience = f;
    spec.policy = policy;
    return processes::buildSingleFDRotatingConsensusSystem(spec);
  }
  if (error) *error = "unknown candidate '" + candidate + "'";
  return nullptr;
}

long parseIntOrDie(const char* flag, const char* text, long lo, long hi) {
  long value = 0;
  const char* end = text + std::strlen(text);
  auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc() || ptr != end || text == end) {
    std::fprintf(stderr, "%s: not an integer: '%s'\n", flag, text);
    std::exit(2);
  }
  if (value < lo || value > hi) {
    std::fprintf(stderr, "%s: value %ld out of range [%ld, %ld]\n", flag,
                 value, lo, hi);
    std::exit(2);
  }
  return value;
}

}  // namespace boosting::serve
