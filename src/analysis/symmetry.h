// SymmetryPolicy: orbit canonicalization of SystemStates under the
// candidate's process-permutation group (symmetry reduction).
//
// The paper's proof machinery is symmetric in process identity: the
// j/k-similarity relations of Sections 3.3 and 3.5 (Lemmas 6-8) never
// depend on WHICH processes are in a given local state, only on the
// multiset of local states and how the services relate them. For a
// candidate whose automorphism group is the full S_n (every process runs
// the same program and every service is connected to all processes --
// relay), two configurations that differ by a permutation of
// process identities generate permuted copies of the same execution
// subtree: valence, bivalence, hooks and the adversary's gamma
// construction are all preserved by relabeling. The exploration engines
// may therefore intern a single canonical representative per orbit,
// shrinking the reachable graph by up to n!.
//
// Canonical form: the minimum, over the group, of the relabeled state
// under a deterministic per-slot order (cached slot hash first, serialized
// slot content as the tie-break -- reusing the COW representation's
// per-slot hash caches, see DESIGN.md "State representation"). Only
// id-free candidates are supported: process states never mention process
// identities (declared via System::declareProcessSymmetry), so the
// minimization sorts the process slots by content key and only enumerates
// permutations within tied blocks.
//
// The quotient is an opt-in memory mode (SymmetryMode::On): POR alone is
// faster on every measured candidate, so SymmetryMode::Auto resolves to
// the trivial group (DESIGN.md "Symmetry reduction").
//
// Soundness hinges on equivariance of the composed transition function:
//   relabel_pi(apply(s, a)) == apply(relabel_pi(s), relabel_pi(a))
// which holds because (a) the composition routes actions structurally by
// endpoint, (b) each service's relabeledState maps every endpoint-keyed
// buffer through pi, and (c) components treat endpoints symmetrically
// (validated assumptions; exercised by the symmetry fuzz suite).
// Witnesses found in the quotient graph are lifted back to real
// executions by accumulating the canonicalization permutations along the
// path (see adversary.cpp).
//
// Thread safety: none. canonicalize() updates the statistics through plain
// mutable members, so a policy belongs to one exploration thread. The
// policy borrows the System, which must outlive it.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ioa/system.h"

namespace boosting::analysis {

// CLI-facing selection: On enables the reduction whenever the candidate
// declares a usable symmetry and otherwise surfaces WHY it stayed off
// (disabledReason); Auto and Off force the identity group. Auto is the
// CLI, served and harness default, Off the library default.
enum class SymmetryMode { Auto, On, Off };

class SymmetryPolicy {
 public:
  struct CanonResult {
    ioa::SystemState state;  // the orbit representative, != the input
    std::vector<int> perm;   // state == relabeled(input, perm)
  };

  // Builds the policy for `sys` under `mode`. Never fails: when the
  // reduction is not requested (mode Auto or Off) or cannot be applied
  // soundly (no declared symmetry, asymmetric service connection pattern,
  // missing relabeledState support, n < 2) the returned policy is
  // trivial() and disabledReason() says why. The System must outlive the
  // policy.
  static std::shared_ptr<const SymmetryPolicy> forSystem(
      const ioa::System& sys, SymmetryMode mode);

  // Trivial group: canonicalize() always answers "already canonical".
  bool trivial() const { return trivial_; }
  const std::string& disabledReason() const { return disabledReason_; }

  // The orbit representative of `s`, or nullopt when `s` already is it
  // (the common case once exploration reaches a steady state). Never
  // mutates `s`: the engines' reusable successor buffers must survive a
  // canonicalizing intern untouched (see transition_cache.h).
  std::optional<CanonResult> canonicalize(const ioa::SystemState& s) const;

  // `s` relabeled under `perm` (perm[i] is the new index of process i):
  // process slot i's content moves to slot perm[i] and every service slot
  // is rewritten via Automaton::relabeledState. Exposed for the
  // witness-lifting pass and the fuzz suite.
  ioa::SystemState relabeled(const ioa::SystemState& s,
                             const std::vector<int>& perm) const;

  // `a` relabeled under `perm`: its endpoint mapped through perm (payloads
  // of id-free candidates carry no process identities).
  ioa::Action relabelAction(const ioa::Action& a,
                            const std::vector<int>& perm) const;

  // -- Permutation algebra helpers ----------------------------------------
  static std::vector<int> identityPerm(int n);
  static bool isIdentity(const std::vector<int>& p);
  // (outer o inner)(i) == outer[inner[i]].
  static std::vector<int> composePerm(const std::vector<int>& outer,
                                      const std::vector<int>& inner);
  static std::vector<int> invertPerm(const std::vector<int>& p);

  // -- Quotient statistics (flushed by flushGraphMetrics) -----------------
  // States presented for canonicalization (== intern probes).
  std::uint64_t statesRaw() const { return statesRaw_; }
  // Probes whose state was replaced by a different orbit representative.
  std::uint64_t orbitsCollapsed() const { return orbitsCollapsed_; }

 private:
  SymmetryPolicy() = default;

  // Candidate permutations whose relabelings are minimized over: the
  // (orbit-invariant) set of permutations sorting the process slots by
  // content key.
  std::vector<std::vector<int>> candidatePerms(
      const ioa::SystemState& s) const;

  const ioa::System* sys_ = nullptr;
  bool trivial_ = true;
  std::string disabledReason_;
  int n_ = 0;

  mutable std::uint64_t statesRaw_ = 0;
  mutable std::uint64_t orbitsCollapsed_ = 0;
};

}  // namespace boosting::analysis
