#include "fatomic/recovery/derive.hpp"

#include <cstdint>
#include <set>
#include <utility>

namespace fatomic::recovery {

namespace {

/// Retry attempts granted to methods whose evidence admits retry.
constexpr unsigned kRetryBudget = 2;
/// Observations of an exception type required before its histogram may
/// weight an override — a single sighting is not a pattern.
constexpr std::uint64_t kMinObservations = 2;

/// Per-(method, exception-type) tally off the campaign's marks: how often
/// the type was observed passing through the method's wrapper, whether the
/// state was intact every time, and whether the run's exception ultimately
/// escaped the whole program.
struct TypeTally {
  std::uint64_t count = 0;
  std::uint64_t atomic = 0;
  std::uint64_t escaped = 0;
};

std::map<std::string, std::map<std::string, TypeTally>> tally_marks(
    const detect::Campaign& campaign) {
  std::map<std::string, std::map<std::string, TypeTally>> out;
  for (const detect::RunRecord& run : campaign.runs) {
    for (const weave::Mark& mark : run.marks) {
      if (mark.exception_type.empty()) continue;  // a foreign exception
      TypeTally& t =
          out[mark.method->qualified_name()][mark.exception_type];
      ++t.count;
      if (mark.atomic) ++t.atomic;
      if (run.escaped) ++t.escaped;
    }
  }
  return out;
}

}  // namespace

DerivedPolicies derive_policy_table(const analyze::StaticReport& report,
                                    const detect::Campaign* evidence) {
  DerivedPolicies out;
  auto table = std::make_shared<PolicyTable>();
  const std::set<std::string> proven = report.prune_set();

  std::map<std::string, std::map<std::string, TypeTally>> tallies;
  if (evidence != nullptr) tallies = tally_marks(*evidence);

  for (const auto& [name, w] : report.write_sets.methods) {
    RecoveryPolicy pol;
    bool pinned = false;
    if (proven.count(name) != 0) {
      // Statically proven failure atomic: a failed attempt cannot have
      // mutated the receiver, so re-execution needs no checkpoint.
      pol.action = Action::Retry;
      pol.retry_budget = kRetryBudget;
      pol.rollback_before_retry = false;
      out.evidence[name] = "proven-atomic (prune set)";
    } else if (w.plan.partial) {
      // Verified partial plan: the bounded write set makes the plan-scoped
      // restore re-establish the entry state before every attempt.
      pol.action = Action::Retry;
      pol.retry_budget = kRetryBudget;
      pol.rollback_before_retry = true;
      out.evidence[name] =
          "partial plan (" + std::to_string(w.plan.capture.size()) +
          " fields)";
    } else {
      // The analysis could not bound the failure footprint — only the
      // always-sound strategy applies, and nothing may soften it.
      pol.action = Action::Rollback;
      pinned = true;
      out.evidence[name] =
          w.top_reason.empty() ? "unproven" : ("⊤: " + w.top_reason);
    }

    if (!pinned) {
      auto it = tallies.find(name);
      if (it != tallies.end()) {
        for (const auto& [type, t] : it->second) {
          if (t.count < kMinObservations) continue;
          if (t.atomic == t.count) {
            // Every observation of this type left the state intact; degrade
            // past it (the wrapper still compares per instance and refuses
            // to swallow when this time differs).
            pol.exception_overrides[type] = Action::Degrade;
          } else if (t.escaped == t.count) {
            // Never handled anywhere in the program: transform into the
            // stable boundary type.
            pol.exception_overrides[type] = Action::RethrowAs;
          }
        }
      }
    }

    table->set(name, std::move(pol));
  }
  out.table = std::move(table);
  return out;
}

}  // namespace fatomic::recovery
