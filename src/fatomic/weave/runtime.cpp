#include "fatomic/weave/runtime.hpp"

namespace fatomic::weave {

namespace {

/// The runtime explicitly installed on this thread (innermost
/// ScopedRuntime), or null when the thread uses its default instance.
thread_local Runtime* tl_current = nullptr;

}  // namespace

Runtime& Runtime::instance() {
  if (tl_current != nullptr) return *tl_current;
  // One lazily-constructed default runtime per thread.  The main thread's
  // default plays the role of the old process-global singleton, so existing
  // single-threaded callers observe unchanged behaviour.
  thread_local Runtime tl_default;
  return tl_default;
}

void Runtime::begin_run(std::uint64_t threshold, const CallTable* calls) {
  point = 0;
  injection_point = threshold;
  baseline = calls;
  entries = 0;
  capture_missed = false;
  observation_failure = nullptr;
  injected_method = nullptr;
  injected_exception.clear();
  depth = 0;
  marks.clear();
  last_throw_serial = 0;
  trace.set_run(threshold);
}

void Runtime::adopt_config(const Runtime& src) {
  mode_ = src.mode_;
  wrap_ = src.wrap_;
  record_diffs = src.record_diffs;
  provenance = src.provenance;
  plans_ = src.plans_;
  plan_memo_.clear();
  policies_ = src.policies_;
  policy_memo_.clear();
  fault_period = src.fault_period;
  validate_checkpoints = src.validate_checkpoints;
  if (src.trace.enabled())
    trace.enable(src.trace.epoch());
  else
    trace.disable();
}

const snapshot::CheckpointPlan* Runtime::checkpoint_plan(const MethodInfo& mi) {
  if (plans_ == nullptr) return nullptr;
  auto memo = plan_memo_.find(&mi);
  if (memo != plan_memo_.end()) return memo->second;
  const snapshot::CheckpointPlan* plan = nullptr;
  auto it = plans_->find(mi.qualified_name());
  if (it != plans_->end() && it->second.partial) plan = &it->second;
  plan_memo_.emplace(&mi, plan);
  return plan;
}

const recovery::RecoveryPolicy* Runtime::recovery_policy(const MethodInfo& mi) {
  if (policies_ == nullptr) return nullptr;
  auto memo = policy_memo_.find(&mi);
  if (memo != policy_memo_.end()) return memo->second;
  const recovery::RecoveryPolicy* pol = policies_->find(mi.qualified_name());
  policy_memo_.emplace(&mi, pol);
  return pol;
}

ScopedRuntime::ScopedRuntime(Runtime& rt) : saved_(tl_current) {
  tl_current = &rt;
}

ScopedRuntime::~ScopedRuntime() { tl_current = saved_; }

ScopedMode::ScopedMode(Mode m) : saved_(Runtime::instance().mode()) {
  Runtime::instance().set_mode(m);
}

ScopedMode::~ScopedMode() { Runtime::instance().set_mode(saved_); }

ScopedConfig::ScopedConfig() : rt_(Runtime::instance()) {
  saved_.adopt_config(rt_);
}

ScopedConfig::~ScopedConfig() { rt_.adopt_config(saved_); }

}  // namespace fatomic::weave
