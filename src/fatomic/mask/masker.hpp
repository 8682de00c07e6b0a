// The masking phase (Figure 1, steps 4-5): derives the set of methods whose
// calls are replaced by atomicity wrappers, installs it into the runtime,
// and verifies the corrected program by re-running the injection campaign
// against the masked program.
#pragma once

#include <functional>
#include <memory>

#include "fatomic/analyze/static_report.hpp"
#include "fatomic/detect/classify.hpp"
#include "fatomic/detect/experiment.hpp"
#include "fatomic/weave/runtime.hpp"

namespace fatomic {
class Config;
}

namespace fatomic::mask {

/// Wrap only the pure failure non-atomic methods (minus policy.no_wrap).
/// Sufficient: once every pure method is failure atomic, every conditional
/// method is atomic by Definition 3 (induction over the call graph).
/// Warns on stderr when a no_wrap entry names a method the registry has
/// never seen (detect::unknown_policy_names) — a typo excludes nothing.
weave::Runtime::WrapPredicate wrap_pure(const detect::Classification& cls,
                                        const detect::Policy& policy = {});

/// Wrap every failure non-atomic method (pure and conditional).  More
/// checkpointing than necessary — used as the conservative baseline and by
/// the ablation bench.
weave::Runtime::WrapPredicate wrap_all_nonatomic(
    const detect::Classification& cls, const detect::Policy& policy = {});

/// Converts the static report's write-set plans into the runtime's PlanMap
/// (field-granular checkpointing, DESIGN.md §8).  ⊤ verdicts are omitted —
/// an absent entry already means "full checkpoint".
std::shared_ptr<const weave::PlanMap> make_plans(
    const analyze::StaticReport& report);

/// RAII: switches the runtime to the corrected program P_C — Mask mode plus
/// the given wrap predicate — for the lifetime of the scope.  The enclosing
/// runtime configuration is restored on exit (weave::ScopedConfig).
class MaskedScope {
 public:
  explicit MaskedScope(weave::Runtime::WrapPredicate wrap);
  /// P_C with field-granular checkpoints: additionally installs `plans`,
  /// the completeness-validator flag and (optionally) a recovery policy
  /// table for the scope's lifetime.
  MaskedScope(weave::Runtime::WrapPredicate wrap,
              std::shared_ptr<const weave::PlanMap> plans,
              bool validate = false,
              std::shared_ptr<const recovery::PolicyTable> policies = nullptr);
  ~MaskedScope();
  MaskedScope(const MaskedScope&) = delete;
  MaskedScope& operator=(const MaskedScope&) = delete;

 private:
  weave::ScopedConfig config_;
};

/// Checkpointing configuration for a mask-verify campaign.  Like
/// detect::CampaignSettings this is the internal carrier — the supported
/// entry point is fatomic::Config plus the Config overload of
/// verify_masked_full below.
struct VerifySettings {
  /// Field-granular checkpoint plans (mask::make_plans); null = full
  /// checkpoints everywhere.
  std::shared_ptr<const weave::PlanMap> plans;
  /// Shadow-validate every partial checkpoint; divergences show up in
  /// campaign.stats.validator_divergences.
  bool validate = false;
  /// Worker threads for the verification campaign.
  unsigned jobs = 1;
  /// Record the structured event trace of the verification campaign
  /// (Campaign::trace).
  bool trace = false;
  /// Recovery policy table installed for the verification campaign
  /// (DESIGN.md §14).  Null keeps the runtime's table; a wrapped method
  /// with no entry rolls back and rethrows (recovery::kRollbackPolicy).
  std::shared_ptr<const recovery::PolicyTable> policies;
};

/// verify_masked plus the raw campaign — callers that need the checkpoint
/// counters (partial/fallback/validator stats) read them off the campaign.
struct MaskVerification {
  detect::Classification classification;
  detect::Campaign campaign;
};

MaskVerification verify_masked_full(std::function<void()> program,
                                    weave::Runtime::WrapPredicate wrap,
                                    const detect::Policy& policy = {},
                                    const VerifySettings& options = {});

/// Config-driven verification: the wrap predicate, checkpoint plans, policy,
/// jobs, validator and tracing flags all come from the unified builder.
/// Requires a predicate installed via Config::mask().
MaskVerification verify_masked_full(std::function<void()> program,
                                    const fatomic::Config& config);

/// Re-runs the full injection campaign against the masked program and
/// returns its classification; an effective mask yields zero non-atomic
/// methods.  `jobs` shards the verification campaign across worker threads
/// (CampaignSettings::jobs).
detect::Classification verify_masked(std::function<void()> program,
                                     weave::Runtime::WrapPredicate wrap,
                                     const detect::Policy& policy = {},
                                     unsigned jobs = 1);

}  // namespace fatomic::mask
