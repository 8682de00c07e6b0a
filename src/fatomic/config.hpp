// fatomic::Config — the one configuration surface of the pipeline.
//
// One builder covers the whole pipeline: campaign shape (jobs, max_runs),
// masking (wrap predicate, partial checkpoint plans, validation), recovery
// policies, static pruning, programmer policy (exception-free / no-wrap
// declarations), diff and footprint recording, tracing and provenance.
// detect::Experiment and mask::verify_masked_full take it as their only
// settings parameter, and a campaign runs exactly its Config.
//
//   fatomic::Config cfg;
//   cfg.jobs(8).tracing(true).prune_atomic(report.prune_set());
//   auto campaign = fatomic::detect::Experiment(program, cfg).run();
//   ...
//   cfg.mask(fatomic::mask::wrap_pure(cls, cfg.policy()))
//      .checkpoint_plans(fatomic::mask::make_plans(report));
//   auto verified = fatomic::mask::verify_masked_full(program, cfg);
//
// Every setter returns *this, so configurations chain; each value has one
// setter and one zero-argument getter.  No setter defaults its argument: on a
// non-const Config a defaulted setter would out-compete the const getter, so
// `cfg.tracing()` would silently mean "enable tracing".
#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <utility>

#include "fatomic/detect/policy.hpp"
#include "fatomic/weave/runtime.hpp"

namespace fatomic {

class Config {
 public:
  // --- campaign shape -----------------------------------------------------
  /// Worker threads running injector runs concurrently: 1 (the default)
  /// drains the campaign's one run loop on the calling thread, on the
  /// campaign's own runtime; 0 means one per hardware thread.  Any value
  /// yields the same Campaign provided the program is deterministic and
  /// shares no mutable state across invocations (every subject workload
  /// constructs fresh objects per run).  A campaign starts no more workers
  /// than it has runs to claim.
  Config& jobs(unsigned n) {
    jobs_ = n;
    return *this;
  }
  unsigned jobs() const { return jobs_; }

  /// Safety valve against runaway campaigns on non-terminating programs.
  Config& max_runs(std::uint64_t n) {
    max_runs_ = n;
    return *this;
  }
  std::uint64_t max_runs() const { return max_runs_; }

  /// Attach the object-graph diff to every non-atomic mark: a one-line
  /// example of the state the failed method left behind (Mark::detail) and
  /// every diff path (Mark::footprint), the mutation footprints
  /// `analyze::alias_check` validates narrowed checkpoint plans against.
  /// Costs one diff per non-atomic mark.
  Config& record_diffs(bool on) {
    record_diffs_ = on;
    return *this;
  }
  bool record_diffs() const { return record_diffs_; }

  // --- masking ------------------------------------------------------------
  /// Runs campaigns against the corrected program P_C: `wrap` selects the
  /// methods whose calls get an atomicity wrapper inside the injection
  /// wrapper.  Null (the default) wraps nothing: the campaign detects.
  Config& mask(weave::Runtime::WrapPredicate wrap) {
    wrap_ = std::move(wrap);
    return *this;
  }
  const weave::Runtime::WrapPredicate& wrap() const { return wrap_; }

  /// Field-granular checkpoint plans (mask::make_plans) the atomicity
  /// wrappers of a masked campaign consult; null (the default) means full
  /// deep checkpoints everywhere.
  Config& checkpoint_plans(std::shared_ptr<const weave::PlanMap> plans) {
    checkpoint_plans_ = std::move(plans);
    return *this;
  }
  const std::shared_ptr<const weave::PlanMap>& checkpoint_plans() const {
    return checkpoint_plans_;
  }

  /// Shadow every partial checkpoint with a full one and count rollback
  /// divergences (stats.validator_divergences): a partial rollback must
  /// leave the receiver equal to the shadow.
  Config& validate_checkpoints(bool on) {
    validate_checkpoints_ = on;
    return *this;
  }
  bool validate_checkpoints() const { return validate_checkpoints_; }

  // --- recovery (DESIGN.md §14) -------------------------------------------
  /// Installs a complete recovery policy table for masked campaigns: masked
  /// methods with an entry recover by their policy; the others roll back and
  /// rethrow.  Null (the default) means recovery::kRollbackPolicy for all.
  /// Typically fed from recovery::derive_policy_table or a `--policy-file`
  /// JSON document (recovery::load_policy_file).
  Config& recovery(std::shared_ptr<const recovery::PolicyTable> table) {
    recovery_ = std::move(table);
    return *this;
  }
  /// Builder form: installs a copy of the current table (empty when none)
  /// with `policy` set for `qualified_name`, so a table already handed out,
  /// or shared with a copied Config, never changes.  Later calls for the
  /// same method overwrite.
  Config& recovery_policy(const std::string& qualified_name,
                          recovery::RecoveryPolicy policy) {
    auto table = recovery_ == nullptr
                     ? std::make_shared<recovery::PolicyTable>()
                     : std::make_shared<recovery::PolicyTable>(*recovery_);
    table->set(qualified_name, std::move(policy));
    recovery_ = std::move(table);
    return *this;
  }
  const std::shared_ptr<const recovery::PolicyTable>& recovery() const {
    return recovery_;
  }

  // --- static pruning -----------------------------------------------------
  /// Qualified names statically proven failure atomic
  /// (analyze::StaticReport::prune_set).  A threshold whose whole
  /// injection-time stack consists of these methods (or of calls without a
  /// receiver) skips its injector run: it could only produce atomic marks
  /// for methods already known atomic, so the classification is unchanged.
  /// Empty = no pruning.  Soundness argument: DESIGN.md §7.
  Config& prune_atomic(std::set<std::string> names) {
    prune_atomic_ = std::move(names);
    return *this;
  }
  const std::set<std::string>& prune_atomic() const { return prune_atomic_; }

  // --- programmer policy (the paper's web-interface knobs) ---------------
  /// Declares a method exception-free: runs whose exception was injected
  /// there are discounted before classification.  Repeatable.
  Config& exception_free(const std::string& qualified_name) {
    policy_.exception_free.insert(qualified_name);
    return *this;
  }
  /// Excludes a method from automatic masking.  Repeatable.
  Config& no_wrap(const std::string& qualified_name) {
    policy_.no_wrap.insert(qualified_name);
    return *this;
  }
  /// Replaces the whole policy at once.
  Config& policy(detect::Policy p) {
    policy_ = std::move(p);
    return *this;
  }
  const detect::Policy& policy() const { return policy_; }

  // --- observability ------------------------------------------------------
  /// Records the structured event trace for every campaign run; the merged
  /// stream comes back as Campaign::trace (exporters: trace/export.hpp).
  /// Off by default: the disabled path costs one predicted branch per event
  /// site.
  Config& tracing(bool on) {
    tracing_ = on;
    return *this;
  }
  bool tracing() const { return tracing_; }

  /// Captures throw-site backtraces for every campaign exception (the
  /// __cxa_throw interposer, unwind/provenance.hpp): marks and escape
  /// records carry interned stack ids and campaign JSON gains an
  /// "exception_provenance" section.
  Config& provenance(bool on) {
    provenance_ = on;
    return *this;
  }
  bool provenance() const { return provenance_; }

 private:
  unsigned jobs_ = 1;
  std::uint64_t max_runs_ = 10'000'000;
  bool record_diffs_ = false;
  weave::Runtime::WrapPredicate wrap_;
  std::shared_ptr<const weave::PlanMap> checkpoint_plans_;
  bool validate_checkpoints_ = false;
  std::shared_ptr<const recovery::PolicyTable> recovery_;
  std::set<std::string> prune_atomic_;
  detect::Policy policy_;
  bool tracing_ = false;
  bool provenance_ = false;
};

}  // namespace fatomic
