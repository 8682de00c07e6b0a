#include "fatomic/detect/experiment.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "fatomic/unwind/provenance.hpp"

namespace fatomic::detect {

std::size_t Campaign::distinct_methods() const {
  std::set<const weave::MethodInfo*> methods;
  for (const weave::BaselineCall& call : calls) methods.insert(call.method);
  return methods.size();
}

std::size_t Campaign::distinct_classes() const {
  std::set<std::string_view> classes;
  for (const weave::BaselineCall& call : calls)
    classes.insert(call.method->class_name());
  return classes.size();
}

Experiment::Experiment(std::function<void()> program, fatomic::Config config)
    : program_(std::move(program)), config_(std::move(config)) {}

namespace {

/// One injector run and everything the campaign needs from it.
struct RunOutcome {
  RunRecord rec;
  /// The run's counter never reached the threshold and nothing was injected
  /// — every injection point of the program has been visited.
  bool terminal = false;
  /// Stats delta attributable to this run alone.
  weave::RuntimeStats stats;
  /// Ordinal of the worker that executed the run (0 = driving thread).
  unsigned worker = 0;
  /// This run's slice of the executing runtime's event stream.
  std::vector<trace::Event> events;
};

/// One execution of the injector program at `threshold`, following
/// `baseline` (null = capture everywhere); fills `out`'s record.
void attempt(const std::function<void()>& program, weave::Runtime& rt,
             std::uint64_t threshold, const weave::CallTable* baseline,
             RunOutcome& out) {
  rt.begin_run(threshold, baseline);
  const std::uint64_t run_t0 = rt.trace.begin_span();

  out.rec = RunRecord{};
  out.rec.injection_point = threshold;
  const auto escape = [&](const char* what) {
    out.rec.escaped = true;
    out.rec.escape_what = what;
    if (rt.provenance) out.rec.escape_stack = unwind::current_throw_stack();
  };
  try {
    program();
  } catch (const std::exception& e) {
    escape(e.what());
  } catch (...) {
    escape("(non-standard exception)");
  }
  if (rt.observation_failure) {
    // An injection wrapper failed to observe an exception unwinding it
    // (weave::InjectionFrame).  The failure is the run's escape, whether or
    // not the program caught the exception: no mark of this run can be
    // trusted to be complete.
    try {
      std::rethrow_exception(std::exchange(rt.observation_failure, nullptr));
    } catch (const std::exception& e) {
      escape(e.what());
    } catch (...) {
      escape("(non-standard exception)");
    }
  }
  rt.baseline = nullptr;  // the table is the campaign's, not the runtime's

  out.rec.injected_method = rt.injected_method;
  out.rec.injected_exception = rt.injected_exception;
  // The next begin_run clears marks anyway, so hand the vector over instead
  // of copying it (marks can carry per-injection diff strings).
  out.rec.marks = std::move(rt.marks);
  out.terminal = out.rec.injected_method == nullptr && rt.point < threshold;
  rt.trace.span(trace::EventKind::Run, run_t0, out.rec.injected_method,
                out.rec.marks.size());
}

/// Executes the injector program at `threshold` against the calling
/// thread's current runtime `rt` and packages the observations.  Its
/// handlers are the ones every injected exception unwinds to.  When an
/// exception crossed a wrapper that skipped its before-snapshot, the attempt
/// is discarded — stats and events included — and the threshold re-runs
/// with every wrapper capturing (DESIGN.md §15).
RunOutcome run_once(const std::function<void()>& program, weave::Runtime& rt,
                    std::uint64_t threshold, const weave::CallTable& baseline) {
  // Throw-stack captures stop at this frame: everything outside run_once
  // (the driving thread's frames at jobs 1, a worker's std::thread
  // trampoline otherwise) is scheduling context that would otherwise make
  // equal throw stacks hash to different ids across jobs values.
  char capture_floor = 0;
  unwind::ScopedCaptureFloor floor(&capture_floor);
  const weave::RuntimeStats before = rt.stats;
  const std::size_t trace_base = rt.trace.size();

  RunOutcome out;
  attempt(program, rt, threshold, &baseline, out);
  if (rt.capture_missed) {
    rt.stats = before;
    rt.trace.take(trace_base);
    ++rt.stats.capture_reruns;
    attempt(program, rt, threshold, nullptr, out);
  }
  out.stats = rt.stats - before;
  out.worker = rt.trace.worker();
  out.events = rt.trace.take(trace_base);
  return out;
}

/// Appends a run's contribution to the campaign — merged stats, per-worker
/// attribution, trace slice — applying the terminal-run rule: the
/// exhausted, uninjected run that ends the campaign keeps its record only
/// when the subject program escaped an exception of its own — the truly
/// empty terminal run is dropped.
void absorb(Campaign& campaign, std::map<unsigned, WorkerStats>& workers,
            RunOutcome&& out) {
  campaign.stats += out.stats;
  WorkerStats& w = workers[out.worker];
  w.worker = out.worker;
  ++w.runs;
  w.stats += out.stats;
  if (campaign.trace.enabled)
    campaign.trace.events.insert(campaign.trace.events.end(),
                                 std::make_move_iterator(out.events.begin()),
                                 std::make_move_iterator(out.events.end()));
  if (!out.terminal || out.rec.escaped)
    campaign.runs.push_back(std::move(out.rec));
}

bool is_prunable(const std::vector<bool>& prunable, std::uint64_t threshold) {
  return threshold < prunable.size() && prunable[threshold];
}

/// Skipped runs below the campaign's final cutoff (the terminal run's
/// threshold, itself never pruned, or max_runs).
std::uint64_t count_pruned(const std::vector<bool>& prunable,
                           std::uint64_t cutoff) {
  std::uint64_t n = 0;
  for (std::uint64_t t = 1; t <= cutoff && t < prunable.size(); ++t)
    if (prunable[t]) ++n;
  return n;
}

/// Sets a fresh runtime up to run the campaign's injector program: every
/// value comes from `config` (a null predicate wraps nothing, null plans
/// mean full checkpoints, a null table kRollbackPolicy, and production
/// faults stay off), and a traced campaign's buffers share `epoch`.  The
/// driving runtime and every worker's are set up by it alone, so nothing is
/// inherited, saved or restored.
void set_up(weave::Runtime& rt, const fatomic::Config& config,
            std::uint64_t epoch, std::uint16_t worker) {
  rt.set_mode(weave::Mode::Inject);
  rt.set_wrap_predicate(config.wrap());
  rt.set_checkpoint_plans(config.checkpoint_plans());
  rt.set_recovery_policies(config.recovery());
  rt.validate_checkpoints = config.validate_checkpoints();
  rt.record_diffs = config.record_diffs();
  rt.provenance = config.provenance();
  if (config.tracing()) rt.trace.enable(epoch);
  rt.trace.set_worker(worker);
}

}  // namespace

Campaign Experiment::run() {
  Campaign campaign;

  // Throw-site provenance: arm the __cxa_throw interposer for the whole
  // campaign (process-wide, so parallel workers are covered); set_up tells
  // the wrappers to attribute captures.
  campaign.provenance = config_.provenance();
  unwind::ScopedArm arm(campaign.provenance);

  // The campaign's own runtime, installed on this thread for the baseline
  // and, at jobs 1, the injector runs.  All runtimes of a traced campaign
  // share one epoch.
  const auto epoch = static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch() /
      std::chrono::nanoseconds(1));
  weave::Runtime rt;
  set_up(rt, config_, epoch, /*worker=*/0);
  weave::ScopedRuntime install(rt);
  campaign.trace.enabled = rt.trace.enabled();
  const std::uint64_t campaign_t0 = rt.trace.begin_span();

  // Baseline: the original program's per-call table, which the campaign
  // keeps and every injector run of it follows (DESIGN.md §15).  A program
  // that escapes an exception even uninjected still yields a baseline — the
  // calls observed up to the escape — and its terminal injector run records
  // the escape (see absorb()).
  rt.set_mode(weave::Mode::Count);
  const std::uint64_t baseline_t0 = rt.trace.begin_span();
  try {
    program_();
  } catch (...) {
  }
  rt.set_mode(weave::Mode::Inject);
  const std::uint64_t thresholds = rt.point;  // injection points counted
  campaign.calls = std::move(rt.calls);
  const weave::CallTable& baseline = campaign.calls;
  rt.trace.span(trace::EventKind::Baseline, baseline_t0, nullptr,
                campaign.total_calls());

  // Map thresholds to statically skippable runs.  Each call fires one
  // injection point per exception spec of its method (declared first, then
  // the runtime exceptions — fire_injection_points), so the k-th baseline
  // call covers a contiguous block of thresholds.  A threshold is skippable
  // when every call on its stack with a receiver is statically proven
  // atomic: the run could only produce atomic marks for already-proven
  // methods (calls without a receiver never produce marks), leaving the
  // classification sets unchanged.  A call is skippable when its own method
  // qualifies and its parent is skippable.  DESIGN.md §7.
  std::vector<bool> prunable;
  const std::set<std::string>& prune_atomic = config_.prune_atomic();
  if (!prune_atomic.empty()) {
    prunable.assign(1, false);  // thresholds are 1-based
    std::vector<bool> skippable(baseline.size());
    for (std::size_t k = 0; k < baseline.size(); ++k) {
      const weave::BaselineCall& call = baseline[k];
      skippable[k] =
          (!call.method->has_receiver() ||
           prune_atomic.count(call.method->qualified_name()) != 0) &&
          (call.parent == weave::BaselineCall::kTopLevel ||
           skippable[call.parent]);
      prunable.insert(prunable.end(), call.method->injection_points(),
                      skippable[k]);
    }
  }
  const auto unpruned = [&](std::uint64_t t) {
    while (is_prunable(prunable, t)) ++t;
    return t;
  };

  // Campaign-scope events recorded so far (the baseline span) open the
  // merged stream; every kept run's slice follows in threshold order, and
  // the closing campaign span lands last.
  if (campaign.trace.enabled) campaign.trace.events = rt.trace.take(0);

  // One run loop for every jobs value.  A worker claims the next threshold,
  // runs it on its own runtime and hands the outcome in; outcomes are
  // absorbed in threshold order as soon as every lower threshold is in.
  // `stop` is the lowest terminal threshold found so far (max_runs before
  // one is, 0 once cancelled), and nothing past it is claimed or absorbed.
  // So any number of workers builds the one-worker Campaign, and a lone
  // worker holds one outcome at a time.
  std::atomic<std::uint64_t> next{1};
  std::atomic<std::uint64_t> stop{config_.max_runs()};
  std::mutex mu;  // guards `campaign` and the four below
  std::uint64_t frontier = unpruned(1);  // the next threshold to absorb
  std::map<std::uint64_t, RunOutcome> finished;  // runs at frontier and up
  std::map<unsigned, WorkerStats> workers;
  std::exception_ptr failure;  // the first a worker hit (cancel)
  const auto drain = [&](weave::Runtime& own) {
    for (std::uint64_t t = next++; t <= stop.load(); t = next++) {
      if (is_prunable(prunable, t)) continue;
      RunOutcome out = run_once(program_, own, t, baseline);
      if (out.terminal) {
        std::uint64_t cur = stop.load();
        while (t < cur && !stop.compare_exchange_weak(cur, t)) {
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      finished.emplace(t, std::move(out));
      while (!finished.empty() && finished.begin()->first == frontier &&
             frontier <= stop.load()) {
        absorb(campaign, workers, std::move(finished.begin()->second));
        finished.erase(finished.begin());
        frontier = unpruned(frontier + 1);
      }
    }
  };
  // A failure that is not the subject program's (run_once absorbs those),
  // e.g. bad_alloc or a thread the system refused, stops every worker at
  // its next claim and is rethrown once all have joined.
  const auto cancel = [&](std::exception_ptr e) {
    std::lock_guard<std::mutex> lock(mu);
    if (!failure) failure = std::move(e);
    stop.store(0);
  };

  // No more workers than runs to claim: the baseline's thresholds plus the
  // terminal run, at most max_runs.
  const std::uint64_t jobs = std::min<std::uint64_t>(
      {config_.jobs() != 0 ? config_.jobs()
                           : std::max(1u, std::thread::hardware_concurrency()),
       thresholds + 1, config_.max_runs()});
  if (jobs <= 1) {
    drain(rt);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(jobs);
    try {
      for (unsigned ordinal = 1; ordinal <= jobs; ++ordinal)
        pool.emplace_back([&, ordinal] {
          try {
            weave::Runtime own;
            set_up(own, config_, epoch, static_cast<std::uint16_t>(ordinal));
            weave::ScopedRuntime install_own(own);
            drain(own);
          } catch (...) {
            cancel(std::current_exception());
          }
        });
    } catch (...) {
      cancel(std::current_exception());  // then join the threads started
    }
    for (std::thread& t : pool) t.join();
    if (failure) std::rethrow_exception(failure);
  }
  campaign.pruned_runs = count_pruned(prunable, stop.load());
  for (auto& [ordinal, w] : workers)
    campaign.worker_stats.push_back(std::move(w));

  if (campaign.trace.enabled) {
    rt.trace.set_run(0);
    rt.trace.span(trace::EventKind::Campaign, campaign_t0, nullptr,
                  campaign.runs.size());
    std::vector<trace::Event> tail = rt.trace.take(0);
    campaign.trace.events.insert(campaign.trace.events.end(),
                                 std::make_move_iterator(tail.begin()),
                                 std::make_move_iterator(tail.end()));
  }
  return campaign;
}

}  // namespace fatomic::detect
