// Candidate-system factory shared by the one-shot CLI (boosting_analyze)
// and the resident service (boosting_served). Both front ends MUST build
// byte-identical systems for the same (candidate, n, f) triple -- the
// service's warm-cache verdicts are asserted byte-identical to the CLI's,
// and that only holds if the underlying automata match exactly -- so the
// construction lives here, in one place. So does the option parsing the
// two front ends share.
#pragma once

#include <memory>
#include <string>

#include "ioa/system.h"

namespace boosting::serve {

// The candidate names accepted by both front ends.
bool isKnownCandidate(const std::string& candidate);

// Build the candidate system, or return nullptr with *error set when the
// candidate name is unknown. `n` is the process count, `f` the service
// resilience; range/cross-field validation (n bounds, f < n, ...) is the
// caller's job -- this factory only dispatches on the name.
std::unique_ptr<ioa::System> buildCandidateSystem(const std::string& candidate,
                                                  int n, int f,
                                                  std::string* error);

// Strict integer option parsing: the full token must be a decimal integer
// within [lo, hi]. Anything else -- "banana", "2x", empty, out of range --
// names the offending flag and value on stderr and exits 2, instead of the
// old atoi behaviour of silently reading 0.
long parseIntOrDie(const char* flag, const char* text, long lo, long hi);

// The auto|on|off switch of --symmetry/--por and of the wire keys of the
// same names (analysis::SymmetryMode, analysis::PorMode).
template <class Mode>
bool parseMode(const std::string& key, const std::string& text, Mode* out,
               std::string* error) {
  if (text != "auto" && text != "on" && text != "off") {
    *error = key + ": expected auto|on|off, got '" + text + "'";
    return false;
  }
  *out = text == "auto" ? Mode::Auto : text == "on" ? Mode::On : Mode::Off;
  return true;
}

}  // namespace boosting::serve
