#include "fatomic/mask/masker.hpp"

#include <iostream>
#include <memory>
#include <set>
#include <string>
#include <utility>

namespace fatomic::mask {

namespace {

weave::Runtime::WrapPredicate make_predicate(std::set<std::string> names) {
  auto shared = std::make_shared<std::set<std::string>>(std::move(names));
  return [shared](const weave::MethodInfo& mi) {
    return shared->count(mi.qualified_name()) != 0;
  };
}

/// A no_wrap entry with a typo matches nothing and silently re-enables
/// masking of the method the programmer meant to exempt — flag it.
void warn_unknown_no_wrap(const detect::Policy& policy) {
  auto& registry = weave::MethodRegistry::instance();
  for (const std::string& n : policy.no_wrap)
    if (registry.find(n) == nullptr)
      std::cerr << "fatomic: warning: policy no_wrap entry '" << n
                << "' matches no registered method (typo?)\n";
}

}  // namespace

weave::Runtime::WrapPredicate wrap_pure(const detect::Classification& cls,
                                        const detect::Policy& policy) {
  warn_unknown_no_wrap(policy);
  std::set<std::string> names;
  for (const std::string& n : cls.pure_names())
    if (!policy.no_wrap.count(n)) names.insert(n);
  return make_predicate(std::move(names));
}

weave::Runtime::WrapPredicate wrap_all_nonatomic(
    const detect::Classification& cls, const detect::Policy& policy) {
  warn_unknown_no_wrap(policy);
  std::set<std::string> names;
  for (const std::string& n : cls.nonatomic_names())
    if (!policy.no_wrap.count(n)) names.insert(n);
  return make_predicate(std::move(names));
}

std::shared_ptr<const weave::PlanMap> make_plans(
    const analyze::StaticReport& report) {
  auto plans = std::make_shared<weave::PlanMap>();
  for (const auto& [name, w] : report.write_sets.methods)
    if (w.plan.partial) plans->emplace(name, w.plan);
  return plans;
}

MaskedScope::MaskedScope(
    weave::Runtime::WrapPredicate wrap,
    std::shared_ptr<const weave::PlanMap> plans, bool validate,
    std::shared_ptr<const recovery::PolicyTable> policies) {
  auto& rt = weave::Runtime::instance();
  rt.set_mode(weave::Mode::Mask);
  rt.set_wrap_predicate(std::move(wrap));
  rt.set_checkpoint_plans(std::move(plans));
  rt.validate_checkpoints = validate;
  rt.set_recovery_policies(std::move(policies));
  rt.trace.instant(trace::EventKind::MaskScope, nullptr, /*entered=*/1);
}

MaskedScope::~MaskedScope() {
  weave::Runtime::instance().trace.instant(trace::EventKind::MaskScope,
                                           nullptr, /*entered=*/0);
}

MaskVerification verify_masked_full(std::function<void()> program,
                                    const fatomic::Config& config) {
  MaskVerification out;
  out.campaign = detect::Experiment(std::move(program), config).run();
  out.classification = detect::classify(out.campaign, config.policy());
  return out;
}

}  // namespace fatomic::mask
