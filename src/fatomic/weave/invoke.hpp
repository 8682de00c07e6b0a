// The wrapper engine: every instrumented subject method routes its body
// through invoke(), which applies the behaviour of the active Mode:
//
//   Inject  — the paper's injection wrapper (Listing 1): fire injection
//             points, deep-copy the receiver, call, and when an exception
//             leaves the call compare object graphs and mark
//             atomic/non-atomic.  Listing 1 catches and rethrows; this
//             wrapper observes the exception from a destructor as it
//             unwinds past.  It nests the atomicity gate: with a wrap
//             predicate installed it verifies that the corrected program
//             P_C is failure atomic.
//   Mask    — the paper's atomicity wrapper (Listing 2) for methods
//             selected by the wrap predicate: checkpoint, call, and on an
//             exception the action of the method's recovery policy — roll
//             back and rethrow unless a policy table says otherwise.
//   Count   — the baseline: records the original program's calls.
//   Direct  — the original program P.
//
// Frame budget: an instrumented call is one frame on the stack, its
// method's.  invoke, invoke_with, invoke_static, dispatch, injected_call,
// injected_gate and fire_injection_points are forced inline (at -O0 too,
// where nothing else is), so an injected exception crosses no engine frame
// between its throw and its handler.  injected_call catches nothing: its
// frame (InjectionFrame) observes the exception from a destructor, so one
// raise unwinds every injection wrapper between the throw and run_once's
// handler.  A detection campaign re-runs the program once per injection
// point and each run ends in an exception, so the budget is paid per run:
// the unwinder steps every frame between a throw and run_once's handler
// twice (search, then cleanup), about 0.2 us per step on a 4-vCPU Xeon VM
// (BM_InjectedException in bench_fig5).  recovered_call still catches,
// since a policy can retry, swallow or transform an exception, so each of
// its rollbacks rethrows.  wrapped_call and recovered_call stay out of
// line: they run only where the predicate wraps, and inlining them saves
// few further steps for a larger binary.
// ProvenanceTest.InjectedThrowStacksHoldNoEngineFrames pins the budget.
#pragma once

#include <cstddef>
#include <exception>
#include <optional>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "fatomic/common/error.hpp"
#include "fatomic/recovery/policy.hpp"
#include "fatomic/snapshot/arena.hpp"
#include "fatomic/snapshot/diff.hpp"
#include "fatomic/snapshot/partial.hpp"
#include "fatomic/snapshot/restore.hpp"
#include "fatomic/unwind/provenance.hpp"
#include "fatomic/weave/exception_name.hpp"
#include "fatomic/weave/method_info.hpp"
#include "fatomic/weave/runtime.hpp"

namespace fatomic::weave {

namespace detail {

/// The injection that fires at the `k`-th of `mi`'s points this call: marks
/// the run injected and returns the spec to raise.  Out of line and cold
/// (once per run), and it returns before the raise, so no unwind steps
/// through its frame.
[[gnu::noinline, gnu::cold]] inline const ExceptionSpec& arm_injection(
    const MethodInfo& mi, Runtime& rt, std::uint64_t k) {
  const std::vector<ExceptionSpec>& declared = mi.declared();
  const ExceptionSpec& e = k < declared.size()
                               ? declared[k]
                               : kRuntimeExceptions[k - declared.size()];
  rt.point = rt.injection_point;  // where the paper's loop raises
  rt.injected_method = &mi;
  rt.injected_exception = e.type_name;
  if (rt.trace.enabled())
    rt.trace.instant(trace::EventKind::Injection, &mi, rt.point, e.type_name);
  return e;
}

/// Listing 1, lines 2-5: one potential injection point per exception type
/// (declared first, then the generic runtime exceptions), gated by the
/// global counter against the run threshold.  The call's points are
/// point+1 .. point+n, so the threshold names the one to fire, if any.
/// Returns the call's entry ordinal in this run — its row in the Count
/// baseline (DESIGN.md §15).
[[gnu::always_inline]] inline std::uint64_t fire_injection_points(
    const MethodInfo& mi, Runtime& rt) {
  const std::uint64_t entry = rt.entries++;
  const std::uint64_t first = rt.point + 1;
  rt.point += mi.injection_points();
  if (rt.injection_point >= first && rt.injection_point <= rt.point)
    arm_injection(mi, rt, rt.injection_point - first).raise();  // throws
  return entry;
}

/// Takes one full checkpoint of `root` through the runtime's arena pool and
/// charges it (snapshots_taken, arena_bytes, a Snapshot span).  Shared by
/// the atomicity wrapper's checkpoint and the injection wrapper's
/// before-capture, so a campaign's full-checkpoint accounting is uniform.
template <class Root>
snapshot::ArenaSnapshot take_full_checkpoint(const MethodInfo& mi,
                                             const Root& root, Runtime& rt) {
  const std::uint64_t t0 = rt.trace.begin_span();
  snapshot::ArenaSnapshot cp = snapshot::arena_capture(root, &rt.arena_pool);
  ++rt.stats.snapshots_taken;
  rt.stats.arena_bytes += cp.byte_size();
  rt.trace.span(trace::EventKind::Snapshot, t0, &mi, cp.node_count());
  return cp;
}

/// A masking or recovery wrapper caught an exception.  What it does next —
/// roll back, retry, swallow — can steer the rest of the run off the Count
/// baseline, so every later injection wrapper captures (DESIGN.md §15).
inline void leave_baseline(Runtime& rt) { rt.baseline = nullptr; }

/// RAII marker: subject code reached through this scope was entered by the
/// engine itself (rollback replay), so dispatch() routes it straight to the
/// body — no injection points, faults, counting or nested wrapping.
struct EngineScope {
  Runtime& rt;
  explicit EngineScope(Runtime& r) : rt(r) { ++rt.engine_depth; }
  ~EngineScope() { --rt.engine_depth; }
  EngineScope(const EngineScope&) = delete;
  EngineScope& operator=(const EngineScope&) = delete;
};

/// Production-mode fault source (DESIGN.md §14): raises an
/// InjectedRuntimeError inside the protected region on every
/// fault_period-th attempt.  Unlike campaign injection points (exact
/// counter equality, one firing per run) this is periodic and advances per
/// attempt, so a retried call faces a fresh — usually passing — fault
/// decision: the transient-fault model the retry policy is built for.
/// fault_period == 0 (the default) makes this a no-op.
inline void maybe_inject_fault(const MethodInfo& mi, Runtime& rt) {
  if (rt.fault_period == 0) return;
  if (++rt.fault_counter % rt.fault_period != 0) return;
  ++rt.stats.faults_injected;
  if (rt.trace.enabled())
    rt.trace.instant(trace::EventKind::Fault, &mi, rt.fault_counter);
  throw InjectedRuntimeError();
}

/// The protected call (DESIGN.md §14): checkpoints `root` once, runs `body`,
/// and on an exception applies the action `pol` selects for its type, which
/// may run `body` again.  Under recovery::kRollbackPolicy this is the
/// paper's atomicity wrapper: roll back and rethrow.
template <class Root, class Fn>
std::invoke_result_t<Fn&> recovered_call(const MethodInfo& mi, Root& root,
                                         Fn& body, Runtime& rt,
                                         const recovery::RecoveryPolicy& pol) {
  using recovery::Action;
  using R = std::invoke_result_t<Fn&>;
  // early_return / degrade can only synthesize a neutral result for void or
  // value-initializable returns; anything else falls back to rollback.
  constexpr bool kNeutralReturn =
      std::is_void_v<R> ||
      (std::is_default_constructible_v<R> && !std::is_reference_v<R>);

  // Which recovery paths this policy can reach decides the checkpoint the
  // call takes.  Only retry-without-rollback (statically proven atomic
  // methods) runs checkpoint-free; degrade needs a *full* entry checkpoint
  // because its guard is a whole-state compare, which a partial
  // (plan-scoped) snapshot cannot answer.
  auto needs_state = [&](Action a) {
    return !(a == Action::Retry && !pol.rollback_before_retry);
  };
  bool need_checkpoint = needs_state(pol.action);
  bool may_degrade = pol.action == Action::Degrade;
  for (const auto& [type, act] : pol.exception_overrides) {
    (void)type;
    if (needs_state(act)) need_checkpoint = true;
    if (act == Action::Degrade) may_degrade = true;
  }
  // Only type overrides and rethrow_as read the exception's demangled name,
  // so a plain rollback never pays for the demangler.
  const bool typed =
      !pol.exception_overrides.empty() || pol.action == Action::RethrowAs;

  // The entry checkpoint, taken once per call, not per attempt: full, or
  // partial with its validate_checkpoints shadow, or none for a retry
  // without rollback.  Invariant: while the call holds a checkpoint, every
  // path to another attempt restores it first (the Retry case below,
  // whatever rollback_before_retry says), so every attempt starts from a
  // receiver equal to it and none captures the receiver again.
  const snapshot::CheckpointPlan* plan = nullptr;
  std::optional<snapshot::ArenaSnapshot> cp;
  bool partial = false;            // cp holds the plan's leaves only
  snapshot::ArenaSnapshot shadow;  // validate_checkpoints shadow for partials
  if (need_checkpoint) {
    // Field-granular fast path (DESIGN.md §8): when the write-set analysis
    // installed a partial plan for this method, capture only the planned
    // leaves.  The walker handles tuple roots from invoke_with too (partial
    // plans imply no parameter writes, so extra by-ref args only contribute
    // walk structure).  Any walk-time surprise falls back to the full deep
    // copy.
    if (!may_degrade) {
      plan = rt.checkpoint_plan(mi);
      if (rt.trace.enabled())
        rt.trace.instant(trace::EventKind::PlanLookup, &mi, plan != nullptr);
    }
    if (plan != nullptr) {
      const std::uint64_t t0 = rt.trace.begin_span();
      cp = snapshot::partial_capture(root, *plan, rt.arena_pool);
      partial = cp.has_value();
      if (partial) {
        ++rt.stats.partial_checkpoints;
        rt.stats.checkpoint_units += cp->node_count();
        rt.trace.span(trace::EventKind::PartialCheckpoint, t0, &mi,
                      cp->node_count());
        if (rt.validate_checkpoints)
          shadow = snapshot::arena_capture(root, &rt.arena_pool);
      } else {
        ++rt.stats.partial_fallbacks;
        rt.trace.instant(trace::EventKind::PartialFallback, &mi);
      }
    }
    if (!cp) {
      cp.emplace(take_full_checkpoint(mi, root, rt));
      rt.stats.checkpoint_units += cp->node_count();
    }
  }

  auto restore = [&] {
    // Retry-without-rollback: nothing captured, nothing to restore — the
    // atomicity proof is the checkpoint.
    if (!cp) return;
    const std::uint64_t t0 = rt.trace.begin_span();
    try {
      // Restoring containers of instrumented objects re-runs their
      // constructors; those entries must not fire injection points of
      // their own (the engine would sabotage its own rollback).
      EngineScope engine(rt);
      if (partial)
        snapshot::partial_restore(root, *cp, *plan, &rt.arena_pool);
      else
        snapshot::restore(root, *cp, &rt.arena_pool);
    } catch (const RestoreError&) {
      // A full restore failed mid-replay: the receiver may be partially
      // restored, and masking anything now would hide corruption.
      ++rt.stats.restore_errors;
      rt.trace.instant(trace::EventKind::RestoreFailure, &mi);
      throw;
    }
    ++rt.stats.rollbacks;
    rt.trace.span(trace::EventKind::Rollback, t0, &mi, partial ? 1 : 0);
    // Completeness validator: the partially restored receiver must equal
    // the shadow full checkpoint taken next to the partial one.
    if (partial && rt.validate_checkpoints &&
        !shadow.equals(snapshot::arena_capture(root, &rt.arena_pool))) {
      ++rt.stats.validator_divergences;
      rt.trace.instant(trace::EventKind::Validator, &mi);
    }
  };

  for (unsigned attempt = 0;; ++attempt) {
    try {
      maybe_inject_fault(mi, rt);
      if constexpr (std::is_void_v<R>) {
        body();
        if (attempt != 0) ++rt.stats.retry_successes;
        return;
      } else {
        R result = body();
        if (attempt != 0) ++rt.stats.retry_successes;
        return std::forward<R>(result);
      }
    } catch (...) {
      leave_baseline(rt);
      const std::uint64_t t0 = rt.trace.begin_span();
      const std::string ex_type =
          typed ? current_exception_type_name() : std::string();
      switch (pol.action_for(ex_type)) {
        case Action::Retry:
          if (attempt < pol.retry_budget) {
            restore();  // the next attempt starts from the entry checkpoint
            ++rt.stats.retry_attempts;
            rt.trace.span(trace::EventKind::Recovery, t0, &mi, attempt + 1,
                          "retry");
            break;  // next attempt
          }
          // Budget exhausted: the policy's fallback is the paper's strategy.
          restore();
          ++rt.stats.retry_exhaustions;
          rt.trace.span(trace::EventKind::Recovery, t0, &mi, attempt,
                        "retry-exhausted");
          throw;
        case Action::Rollback:
          restore();
          ++rt.stats.policy_rollbacks;
          rt.trace.span(trace::EventKind::Recovery, t0, &mi, 0, "rollback");
          throw;
        case Action::RethrowAs:
          restore();
          ++rt.stats.transformed_rethrows;
          rt.trace.span(trace::EventKind::Recovery, t0, &mi, 0, "rethrow_as");
          throw recovery::ServiceError(ex_type);
        case Action::EarlyReturn:
          restore();
          if constexpr (kNeutralReturn) {
            ++rt.stats.early_returns;
            rt.trace.span(trace::EventKind::Recovery, t0, &mi, 0,
                          "early_return");
            if constexpr (std::is_void_v<R>)
              return;
            else
              return R{};
          } else {
            ++rt.stats.policy_rollbacks;
            rt.trace.span(trace::EventKind::Recovery, t0, &mi, 0, "rollback");
            throw;
          }
        case Action::Degrade: {
          // Guarded failure-oblivious continuation: swallow ONLY when the
          // post-exception state equals the entry checkpoint — a
          // corrupted-state verdict is never masked.  may_degrade made that
          // checkpoint a full one.
          ++rt.stats.comparisons;
          const bool intact =
              cp->equals(snapshot::arena_capture(root, &rt.arena_pool));
          if constexpr (kNeutralReturn) {
            if (intact) {
              ++rt.stats.degraded_calls;
              rt.trace.span(trace::EventKind::Recovery, t0, &mi, 1, "degrade");
              if constexpr (std::is_void_v<R>)
                return;
              else
                return R{};
            }
          }
          if (!intact) {
            restore();
            ++rt.stats.degrade_refusals;
            rt.trace.span(trace::EventKind::Recovery, t0, &mi, 0,
                          "degrade-refused");
          } else {
            // State intact but the return type admits no neutral value: the
            // checkpoint already matches, so plain rethrow is the rollback.
            ++rt.stats.policy_rollbacks;
            rt.trace.span(trace::EventKind::Recovery, t0, &mi, 0, "rollback");
          }
          throw;
        }
      }
    }
  }
}

/// Atomicity wrapper around `body` for checkpoint root `root` (the receiver,
/// or a tuple of receiver + by-reference arguments), for a call the wrap
/// predicate selected: recovered_call under the method's installed policy,
/// or recovery::kRollbackPolicy without one.  No reflection traits are
/// queried here: the gates' deduced return types instantiate this body at
/// the FAT_INVOKE call site, which in subject layouts with trailing
/// FAT_REFLECT blocks precedes the Reflect specialization, whereas
/// recovered_call's concrete return type defers its capture code to the end
/// of the translation unit, after every FAT_REFLECT.
template <class Root, class Fn>
decltype(auto) wrapped_call(const MethodInfo& mi, Root& root, Fn&& body,
                            Runtime& rt) {
  ++rt.stats.wrapped_calls;
  const recovery::RecoveryPolicy* pol = rt.recovery_policy(mi);
  return recovered_call(mi, root, body, rt,
                        pol != nullptr ? *pol : recovery::kRollbackPolicy);
}

/// The atomicity gate (Mask mode): the calls the predicate selects run
/// wrapped, the others bare.  A const receiver cannot be rolled back (and
/// cannot be mutated through this path), so it always runs bare.
template <class Root, class Fn>
decltype(auto) masked_call(const MethodInfo& mi, Root& root, Fn&& body,
                           Runtime& rt) {
  if constexpr (!std::is_const_v<Root>)
    if (rt.should_wrap(mi)) return wrapped_call(mi, root, body, rt);
  return body();
}

/// The frame of an injection wrapper (Listing 1): the depth guard and the
/// before-snapshot, armed while the body runs.  An exception that leaves
/// the body finds it armed, and its destructor observes the exception on
/// its way to the handler, which is run_once's: nothing catches or
/// rethrows, so one raise unwinds every wrapper it crosses.  A return
/// disarms it, so the path that throws nothing runs no observer and asks
/// the C++ runtime nothing.
template <class Root>
struct InjectionFrame {
  const MethodInfo& mi;
  const Root& root;
  Runtime& rt;
  /// Taken only when the call can observe an exception (observer-set
  /// capture, DESIGN.md §15).
  std::optional<snapshot::ArenaSnapshot> before;
  bool armed = false;

  InjectionFrame(const MethodInfo& m, const Root& r, Runtime& t)
      : mi(m), root(r), rt(t) {
    ++rt.depth;
  }
  ~InjectionFrame() {
    if (armed) observe();
    --rt.depth;
  }
  InjectionFrame(const InjectionFrame&) = delete;
  InjectionFrame& operator=(const InjectionFrame&) = delete;

  /// Listing 1, lines 10-14, for the exception unwinding this frame:
  /// compare the receiver with its before-snapshot and append the mark.
  /// Out of line and cold: it runs once per wrapper an exception crosses.
  /// It runs during unwinding, where a throw would reach std::terminate, so
  /// a failure (an after-capture that throws SnapshotError, an allocation)
  /// is recorded on the runtime, and the exception goes on unmarked here.
  [[gnu::noinline, gnu::cold]] void observe() noexcept {
    if (!before) {
      // The baseline said no exception could cross this call, yet one did:
      // the program strayed from it.  Mark nothing — the campaign discards
      // this run and re-runs the threshold with every wrapper capturing and
      // every selected call checkpointed.
      rt.capture_missed = true;
      return;
    }
    try {
      const std::uint64_t c0 = rt.trace.begin_span();
      const snapshot::ArenaSnapshot after =
          snapshot::arena_capture(root, &rt.arena_pool);
      ++rt.stats.comparisons;
      const bool atomic = before->equals(after);
      rt.trace.span(trace::EventKind::Compare, c0, &mi, atomic ? 1 : 0);
      // Episode accounting: marks are appended in propagation order and
      // within one episode depths strictly decrease, so this wrapper is the
      // first observer of a new exception exactly when the previous mark
      // sits at the same or a shallower depth (the classifier's episode
      // rule).
      const bool new_episode =
          rt.marks.empty() || rt.marks.back().depth <= rt.depth;
      if (new_episode) ++rt.stats.exceptions_thrown;
      // The exception unwinding this frame is the innermost one in flight;
      // the raise interposers recorded its type (unwind::in_flight_type).
      const std::type_info* type =
          unwind::in_flight_type(std::uncaught_exceptions());
      std::string type_name = exception_type_name(type);
      // Throw-site provenance: attach the pending capture's interned stack
      // to the mark, and record one throw-site event per captured throw —
      // the record serial dedupes the nested wrappers one propagating
      // exception passes through.
      std::uint64_t throw_stack = 0;
      if (rt.provenance) {
        std::uint64_t serial = 0;
        throw_stack = unwind::throw_stack_of(type, &serial);
        if (throw_stack != 0 && serial != rt.last_throw_serial) {
          rt.last_throw_serial = serial;
          if (rt.trace.enabled())
            rt.trace.instant(trace::EventKind::ThrowSite, &mi, throw_stack,
                             type_name);
        }
      }
      Mark mark{&mi, atomic, rt.depth, {}, std::move(type_name),
                throw_stack, {}};
      if (!atomic && rt.record_diffs) {
        // One diff serves both fields: the walk is deterministic
        // depth-first, so its first entry does not depend on the limit.
        auto diffs = snapshot::diff(*before, after, 256);
        if (!diffs.empty()) mark.detail = snapshot::to_string(diffs.front());
        for (auto& d : diffs) mark.footprint.push_back(std::move(d.path));
      }
      rt.marks.push_back(std::move(mark));
    } catch (...) {
      if (!rt.observation_failure)
        rt.observation_failure = std::current_exception();
    }
  }
};

/// masked_call's gate inside an injection wrapper, except that a selected
/// call without a before-snapshot runs bare: no exception crosses it, so no
/// rollback could read its checkpoint.
template <class Root, class Fn>
[[gnu::always_inline]] inline std::invoke_result_t<Fn&> injected_gate(
    const MethodInfo& mi, Root& root, Fn& body, Runtime& rt,
    bool checkpointed) {
  if constexpr (!std::is_const_v<Root>)
    if (rt.should_wrap(mi)) {
      if (checkpointed) return wrapped_call(mi, root, body, rt);
      ++rt.stats.wrapped_calls;
    }
  return body();
}

/// Injection wrapper (Listing 1) around the atomicity gate, mirroring the
/// paper's P_C-under-test; the gate wraps only what the predicate selects.
/// The before-snapshot is taken only when the call can observe an exception
/// (observer-set capture, DESIGN.md §15); no other path reads it, and a
/// selected call that took none skips its atomicity wrapper's checkpoint.
/// An exception is observed by the frame's destructor (InjectionFrame), so
/// the wrapper catches nothing.
template <class Root, class Fn>
[[gnu::always_inline]] inline std::invoke_result_t<Fn&> injected_call(
    const MethodInfo& mi, Root& root, Fn&& body, Runtime& rt) {
  using R = std::invoke_result_t<Fn&>;
  // May throw into our caller's wrapper.
  const std::uint64_t entry = fire_injection_points(mi, rt);
  InjectionFrame<Root> frame(mi, root, rt);
  if (rt.may_observe(entry, mi))
    frame.before.emplace(take_full_checkpoint(mi, root, rt));
  frame.armed = true;
  if constexpr (std::is_void_v<R>) {
    injected_gate(mi, root, body, rt, frame.before.has_value());
    frame.armed = false;
  } else {
    R result = injected_gate(mi, root, body, rt, frame.before.has_value());
    frame.armed = false;
    return result;
  }
}

/// RAII frame of the Count baseline: appends the call's BaselineCall row,
/// under the enclosing call's (kTopLevel at the program top level), and sets
/// its bound on exit.
struct CountFrame {
  Runtime& rt;
  std::size_t index;
  int uncaught = std::uncaught_exceptions();
  // Out of line: every instrumented method inlines the dispatch, and the
  // baseline runs once per campaign.
  [[gnu::noinline]] CountFrame(Runtime& r, const MethodInfo& mi)
      : rt(r), index(r.calls.size()) {
    rt.point += mi.injection_points();
    const std::size_t parent =
        rt.open_calls.empty() ? BaselineCall::kTopLevel : rt.open_calls.back();
    rt.calls.push_back({&mi, parent, 0});
    rt.open_calls.push_back(index);
  }
  ~CountFrame() {
    rt.calls[index].bound = std::uncaught_exceptions() > uncaught
                                ? BaselineCall::kAlways
                                : rt.point;
    rt.open_calls.pop_back();
  }
  CountFrame(const CountFrame&) = delete;
  CountFrame& operator=(const CountFrame&) = delete;
};

template <class Root, class Fn>
[[gnu::always_inline]] inline decltype(auto) dispatch(const MethodInfo& mi,
                                                      Root& root, Fn&& body) {
  Runtime& rt = Runtime::instance();
  // Subject code reached from the engine's own replay (EngineScope) runs
  // as the original program: no injection, wrapping or counting.
  if (rt.engine_depth != 0) return body();
  switch (rt.mode()) {
    case Mode::Direct:
      return body();
    case Mode::Count: {
      CountFrame frame(rt, mi);
      return body();
    }
    case Mode::Inject:
      return injected_call(mi, root, body, rt);
    case Mode::Mask:
      return masked_call(mi, root, body, rt);
  }
  return body();  // unreachable
}

}  // namespace detail

/// Instance-method entry point: checkpoint root is the receiver.
template <class Self, class Fn>
[[gnu::always_inline]] inline decltype(auto) invoke(const MethodInfo& mi,
                                                    Self* self, Fn&& body) {
  return detail::dispatch(mi, *self, std::forward<Fn>(body));
}

/// Instance-method entry point with extra by-reference arguments included in
/// the checkpoint root (the paper checkpoints "all arguments that are passed
/// in as non-constant references", Section 4.1).  `extra` is a std::tie of
/// those arguments.
template <class Self, class... Refs, class Fn>
[[gnu::always_inline]] inline decltype(auto) invoke_with(
    const MethodInfo& mi, Self* self, std::tuple<Refs...> extra, Fn&& body) {
  auto root = std::tuple_cat(std::tie(*self), extra);
  return detail::dispatch(mi, root, std::forward<Fn>(body));
}

/// Constructor / static entry point: no receiver, so only the injection
/// points run (an exception here tests the *callers*' atomicity).
template <class Fn>
[[gnu::always_inline]] inline decltype(auto) invoke_static(
    const MethodInfo& mi, Fn&& body) {
  Runtime& rt = Runtime::instance();
  if (rt.engine_depth != 0) return body();
  switch (rt.mode()) {
    case Mode::Direct:
      return body();
    case Mode::Count: {
      detail::CountFrame frame(rt, mi);
      return body();
    }
    case Mode::Inject:
      detail::fire_injection_points(mi, rt);
      [[fallthrough]];
    case Mode::Mask:
      // A receiverless method selected by the wrap predicate still counts
      // as a wrapped call — its atomicity wrapper is degenerate (nothing to
      // checkpoint), but the stats must reflect every call the mask routed
      // through a wrapper or the per-campaign totals undercount.
      if (rt.should_wrap(mi)) ++rt.stats.wrapped_calls;
      return body();
  }
  return body();  // unreachable
}

}  // namespace fatomic::weave
