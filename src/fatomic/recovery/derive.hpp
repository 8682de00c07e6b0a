// Evidence-to-policy derivation: turns the static analysis (Passes 1-5) and
// an optional campaign's dynamic observations into a per-method
// RecoveryPolicy table.  Nothing here guesses — every step down the action
// lattice cites evidence, and the conservative default (full rollback +
// rethrow, the paper's strategy) is what remains when evidence is absent:
//
//   proven atomic (prune set)   -> retry WITHOUT rollback: a failed attempt
//                                  provably left no trace, so re-execution
//                                  needs no checkpoint at all — the payoff
//                                  of the Pass 1-5 atomicity proofs.
//   partial checkpoint plan     -> retry WITH plan-scoped rollback: the
//                                  verified write set bounds what a failed
//                                  attempt can have touched, so the partial
//                                  restore re-establishes the entry state
//                                  before every attempt.
//   ⊤-collapsed write set,      -> pinned to rollback + rethrow.  No
//   catch clauses, escapes         override may soften a pinned method:
//   via `this`, unscanned          the analysis could not bound its failure
//                                  footprint, so only the always-sound
//                                  strategy applies.
//
// Campaign evidence (exception provenance, PR 7) then weights per-exception
// -type overrides on the non-pinned methods:
//
//   a type every one of whose observations left the method's state intact
//   (all marks atomic)          -> degrade: continue past it — the runtime
//                                  still compares state per instance and
//                                  refuses when this time differs;
//   a type whose observations   -> rethrow_as: no caller ever handled it,
//   always escaped the program     so transforming it into the stable
//                                  recovery::ServiceError boundary type
//                                  loses no handler and gives outer layers
//                                  one type to catch.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "fatomic/analyze/static_report.hpp"
#include "fatomic/detect/campaign.hpp"
#include "fatomic/recovery/policy.hpp"

namespace fatomic::recovery {

struct DerivedPolicies {
  std::shared_ptr<const PolicyTable> table;
  /// Why each method got its policy ("proven-atomic (prune set)",
  /// "partial plan (3 fields)", "⊤: <rule>", ...), keyed like the table.
  std::map<std::string, std::string> evidence;
};

/// Derives a policy table from the static report, optionally weighted by a
/// campaign's dynamic observations (`evidence` may be null: static-only
/// derivation assigns base actions but no per-exception-type overrides).
DerivedPolicies derive_policy_table(const analyze::StaticReport& report,
                                    const detect::Campaign* evidence);

}  // namespace fatomic::recovery
