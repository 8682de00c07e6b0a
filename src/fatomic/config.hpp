// fatomic::Config — the unified public configuration surface.
//
// Several subsystems accreted their own knob structs over time; Config
// collapses them into one builder that covers the whole pipeline: campaign
// shape (jobs, max_runs), masking (wrap predicate, partial checkpoint
// plans, validation), recovery policies, static pruning, programmer policy
// (exception-free / no-wrap declarations), diff recording and tracing.
//
//   fatomic::Config cfg;
//   cfg.jobs(8).tracing(true).prune_atomic(report.prune_set());
//   auto campaign = fatomic::detect::Experiment(program, cfg).run();
//   ...
//   cfg.mask(fatomic::mask::wrap_pure(cls, cfg.policy()))
//      .checkpoint_plans(fatomic::mask::make_plans(report));
//   auto verified = fatomic::mask::verify_masked_full(program, cfg);
//
// Every setter returns *this, so configurations chain; getters expose the
// state the pipeline entry points consume.  (The historic detect::Options
// and mask::MaskOptions adapters completed their deprecation cycle and are
// gone — see DESIGN.md's migration table.)
#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <utility>

#include "fatomic/detect/options.hpp"
#include "fatomic/detect/policy.hpp"

namespace fatomic {

class Config {
 public:
  // --- campaign shape -----------------------------------------------------
  /// Worker threads per campaign: 1 = sequential, 0 = hardware concurrency.
  Config& jobs(unsigned n) {
    settings_.jobs = n;
    return *this;
  }
  /// Safety valve against runaway campaigns on non-terminating programs.
  Config& max_runs(std::uint64_t n) {
    settings_.max_runs = n;
    return *this;
  }
  /// Attach a one-line object-graph diff to every non-atomic mark.
  Config& record_diffs(bool on = true) {
    settings_.record_diffs = on;
    return *this;
  }
  /// Attach the full graph-diff path list to every non-atomic mark (the
  /// `--alias-check` mutation footprints).
  Config& record_footprints(bool on = true) {
    settings_.record_footprints = on;
    return *this;
  }

  // --- masking ------------------------------------------------------------
  /// Runs campaigns against the corrected program P_C: installs `wrap` as
  /// the atomicity-wrapper predicate and flips campaigns to InjectMask.
  Config& mask(weave::Runtime::WrapPredicate wrap) {
    settings_.masked = true;
    settings_.wrap = std::move(wrap);
    return *this;
  }
  /// Field-granular checkpoint plans (mask::make_plans) the atomicity
  /// wrappers consult; null means full deep checkpoints everywhere.
  Config& checkpoint_plans(std::shared_ptr<const weave::PlanMap> plans) {
    settings_.checkpoint_plans = std::move(plans);
    return *this;
  }
  /// Shadow every partial checkpoint with a full one and count rollback
  /// divergences (stats.validator_divergences): a partial rollback must
  /// leave the receiver equal to the shadow.
  Config& validate_checkpoints(bool on = true) {
    settings_.validate_checkpoints = on;
    return *this;
  }

  // --- recovery (DESIGN.md §14) -------------------------------------------
  /// Installs a complete recovery policy table: masked methods with an
  /// entry recover by their policy; the others, and every masked method
  /// when the table is null (the default), roll back and rethrow.
  /// Typically fed from recovery::derive_policy_table or a `--policy-file`
  /// JSON document (recovery::load_policy_file).
  Config& recovery(std::shared_ptr<const recovery::PolicyTable> table) {
    settings_.recovery_policies = std::move(table);
    recovery_builder_.reset();
    return *this;
  }
  /// Builder form: accumulates per-method policies into a table owned by
  /// this Config.  Chains with the other setters; later calls for the same
  /// method overwrite.
  Config& recovery_policy(const std::string& qualified_name,
                          recovery::RecoveryPolicy policy) {
    if (recovery_builder_ == nullptr)
      recovery_builder_ = std::make_shared<recovery::PolicyTable>();
    recovery_builder_->set(qualified_name, std::move(policy));
    settings_.recovery_policies = recovery_builder_;
    return *this;
  }
  const std::shared_ptr<const recovery::PolicyTable>& recovery() const {
    return settings_.recovery_policies;
  }

  // --- static pruning -----------------------------------------------------
  /// Qualified names statically proven failure atomic; thresholds whose
  /// whole injection-time stack lies in this set skip their injector run.
  Config& prune_atomic(std::set<std::string> names) {
    settings_.prune_atomic = std::move(names);
    return *this;
  }

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

  // --- observability ------------------------------------------------------
  /// Records the structured event trace for every campaign run; the merged
  /// stream comes back as Campaign::trace (exporters: trace/export.hpp).
  /// No default argument — `tracing()` must keep resolving to the getter on
  /// non-const configs.
  Config& tracing(bool on) {
    settings_.trace = on;
    return *this;
  }
  /// Captures throw-site backtraces for every campaign exception (the
  /// __cxa_throw interposer, unwind/provenance.hpp): marks and escape
  /// records carry interned stack ids and campaign JSON gains an
  /// "exception_provenance" section.  No default argument for the same
  /// getter-overload reason as tracing().
  Config& provenance(bool on) {
    settings_.provenance = on;
    return *this;
  }

  // --- what the pipeline entry points consume -----------------------------
  const detect::CampaignSettings& campaign_settings() const {
    return settings_;
  }
  const detect::Policy& policy() const { return policy_; }
  bool masked() const { return settings_.masked; }
  unsigned jobs() const { return settings_.jobs; }
  bool tracing() const { return settings_.trace; }
  bool provenance() const { return settings_.provenance; }

 private:
  detect::CampaignSettings settings_;
  detect::Policy policy_;
  /// Mutable table the recovery_policy() builder accumulates into; aliased
  /// by settings_.recovery_policies while building.
  std::shared_ptr<recovery::PolicyTable> recovery_builder_;
};

}  // namespace fatomic
