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

/// RAII: switches the runtime to the corrected program P_C for the lifetime
/// of the scope — Mask mode with all four masking values installed, none
/// inherited from an enclosing scope: the wrap predicate, field-granular
/// checkpoint `plans` (null: full checkpoints), the completeness-validator
/// flag and a recovery policy table (null: kRollbackPolicy).  The enclosing
/// runtime configuration is restored on exit (weave::ScopedConfig).  A
/// campaign run inside the scope does not see it: it runs on its own
/// runtime (detect::Experiment::run).
class MaskedScope {
 public:
  explicit MaskedScope(
      weave::Runtime::WrapPredicate wrap,
      std::shared_ptr<const weave::PlanMap> plans = nullptr,
      bool validate = false,
      std::shared_ptr<const recovery::PolicyTable> policies = nullptr);
  ~MaskedScope();
  MaskedScope(const MaskedScope&) = delete;
  MaskedScope& operator=(const MaskedScope&) = delete;

 private:
  weave::ScopedConfig config_;
};

/// The corrected program's campaign and its classification; callers that
/// need the checkpoint counters (partial/fallback/validator stats) read them
/// off the campaign.
struct MaskVerification {
  detect::Classification classification;
  detect::Campaign campaign;
};

/// Re-runs the full injection campaign against the masked program —
/// detect::Experiment(program, config), classified under config.policy() —
/// and honours every Config value as a detection campaign does.  The wrap
/// predicate comes from Config::mask(); without one nothing is wrapped.  An
/// effective mask yields zero non-atomic methods.
MaskVerification verify_masked_full(std::function<void()> program,
                                    const fatomic::Config& config);

}  // namespace fatomic::mask
