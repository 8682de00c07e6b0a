#include "fatomic/detect/experiment.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <map>
#include <mutex>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "fatomic/unwind/provenance.hpp"

namespace fatomic::detect {

std::size_t Campaign::distinct_classes() const {
  std::set<std::string> classes;
  for (const auto& [mi, count] : call_counts) classes.insert(mi->class_name());
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
  try {
    program();
  } catch (const std::exception& e) {
    out.rec.escaped = true;
    out.rec.escape_what = e.what();
    if (rt.provenance) out.rec.escape_stack = unwind::current_throw_stack();
  } catch (...) {
    out.rec.escaped = true;
    out.rec.escape_what = "(non-standard exception)";
    if (rt.provenance) out.rec.escape_stack = unwind::current_throw_stack();
  }
  rt.baseline = nullptr;  // the table is the campaign's, not the runtime's

  out.rec.injected = rt.injected;
  out.rec.injected_method = rt.injected_method;
  out.rec.injected_exception = rt.injected_exception;
  // The next begin_run clears marks anyway, so hand the vector over instead
  // of copying it (marks can carry per-injection diff strings).
  out.rec.marks = std::move(rt.marks);
  out.terminal = !out.rec.injected && rt.point < threshold;
  rt.trace.span(trace::EventKind::Run, run_t0, out.rec.injected_method,
                out.rec.marks.size());
}

/// Executes the injector program at `threshold` against the calling
/// thread's current runtime `rt` and packages the observations.  When a
/// wrapper that skipped its before-snapshot caught an exception, the attempt
/// is discarded — stats and events included — and the threshold re-runs
/// with every wrapper capturing (DESIGN.md §15).
RunOutcome run_once(const std::function<void()>& program, weave::Runtime& rt,
                    std::uint64_t threshold, const weave::CallTable& baseline) {
  // Throw-stack captures stop at this frame: everything outside run_once
  // (the sequential driver loop vs a worker's std::thread trampoline) is
  // scheduling context that would otherwise make equal throw stacks hash to
  // different ids across jobs values.
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
/// attribution, trace slice — applying the terminal-run rule: an exhausted,
/// uninjected run ends the campaign, but its record is kept when the subject
/// program escaped an exception of its own — only the truly empty terminal
/// run is dropped.  Returns true when the campaign is over.
bool absorb(Campaign& campaign, std::map<unsigned, WorkerStats>& workers,
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
  if (out.terminal) {
    if (out.rec.escaped) campaign.runs.push_back(std::move(out.rec));
    return true;
  }
  campaign.runs.push_back(std::move(out.rec));
  return false;
}

}  // namespace

Campaign Experiment::run() {
  auto& rt = weave::Runtime::instance();
  Campaign campaign;

  // Everything below installs into the calling thread's runtime, and
  // parallel workers copy it from there (adopt_config); the guard gives the
  // enclosing configuration back.  Every setting comes from the Config alone
  // and production faults stay off, so a campaign runs as it would bare.
  weave::ScopedConfig config;
  rt.set_wrap_predicate(config_.wrap());
  rt.set_checkpoint_plans(config_.checkpoint_plans());
  rt.set_recovery_policies(config_.recovery());
  rt.validate_checkpoints = config_.validate_checkpoints();
  rt.record_diffs = config_.record_diffs();
  rt.fault_period = 0;

  // A traced campaign arms the driving buffer with a fresh epoch; an
  // untraced one disables it, so an untraced inner campaign stays invisible
  // to an outer traced one.
  if (config_.tracing()) {
    const auto now = std::chrono::steady_clock::now().time_since_epoch();
    rt.trace.enable(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(now).count()));
    rt.trace.set_worker(0);
    rt.trace.set_run(0);
    rt.trace.take(0);  // drop leftovers from an interrupted campaign
  } else {
    rt.trace.disable();
  }
  campaign.trace.enabled = rt.trace.enabled();
  const std::uint64_t campaign_t0 = rt.trace.begin_span();

  // Throw-site provenance: arm the __cxa_throw interposer for the whole
  // campaign (process-wide, so parallel workers are covered) and tell the
  // wrappers to attribute captures.  Degrades to off when the interposer is
  // compiled out (FATOMIC_PROVENANCE=OFF) or unavailable on this platform.
  const bool provenance = config_.provenance() && unwind::available();
  campaign.provenance = provenance;
  unwind::ScopedArm arm(provenance);
  rt.provenance = provenance;

  // Baseline: call counts of the original program (Figures 2b / 3b) and
  // its per-call table, which every injector run of this campaign follows
  // (DESIGN.md §15).  A program that escapes an exception even uninjected
  // still yields a baseline — the calls observed up to the escape — and its
  // terminal injector run records the escape (see absorb()).
  weave::CallTable baseline;
  rt.set_mode(weave::Mode::Count);
  rt.reset_counts();
  const std::uint64_t baseline_t0 = rt.trace.begin_span();
  try {
    program_();
  } catch (...) {
  }
  const std::uint64_t thresholds = rt.point;  // injection points counted
  campaign.call_counts = rt.call_counts;
  campaign.call_edges = rt.call_edges;
  baseline.swap(rt.calls);
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
    const std::size_t runtime_specs = rt.runtime_exceptions().size();
    std::vector<bool> skippable(baseline.size());
    for (std::size_t k = 0; k < baseline.size(); ++k) {
      const weave::BaselineCall& call = baseline[k];
      skippable[k] =
          (!call.method->has_receiver() ||
           prune_atomic.count(call.method->qualified_name()) != 0) &&
          (call.parent == weave::BaselineCall::kTopLevel ||
           skippable[call.parent]);
      prunable.insert(prunable.end(),
                      call.method->declared().size() + runtime_specs,
                      skippable[k]);
    }
  }

  // Campaign-scope events recorded so far (the baseline span) open the
  // merged stream; every kept run's slice follows in threshold order, and
  // the closing campaign span lands last.
  if (campaign.trace.enabled) campaign.trace.events = rt.trace.take(0);

  rt.set_mode(weave::Mode::Inject);

  // No more workers than runs to claim: the baseline's thresholds plus the
  // terminal run, at most max_runs.
  const std::uint64_t jobs = std::min<std::uint64_t>(
      {config_.jobs() != 0 ? config_.jobs()
                           : std::max(1u, std::thread::hardware_concurrency()),
       thresholds + 1, config_.max_runs()});

  if (jobs > 1)
    run_parallel(campaign, static_cast<unsigned>(jobs), baseline, prunable);
  else
    run_sequential(campaign, baseline, prunable);

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

namespace {

bool is_prunable(const std::vector<bool>& prunable, std::uint64_t threshold) {
  return threshold < prunable.size() && prunable[threshold];
}

/// Skipped runs the sequential loop would have executed: every prunable
/// threshold up to the campaign's final cutoff (the terminal run's threshold,
/// itself never pruned, or max_runs).
std::uint64_t count_pruned(const std::vector<bool>& prunable,
                           std::uint64_t cutoff) {
  std::uint64_t n = 0;
  for (std::uint64_t t = 1; t <= cutoff && t < prunable.size(); ++t)
    if (prunable[t]) ++n;
  return n;
}

std::vector<WorkerStats> sorted_workers(
    std::map<unsigned, WorkerStats>&& workers) {
  std::vector<WorkerStats> out;
  out.reserve(workers.size());
  for (auto& [ordinal, w] : workers) out.push_back(std::move(w));
  return out;
}

}  // namespace

void Experiment::run_sequential(Campaign& campaign,
                                const weave::CallTable& baseline,
                                const std::vector<bool>& prunable) {
  auto& rt = weave::Runtime::instance();
  std::map<unsigned, WorkerStats> workers;
  std::uint64_t cutoff = config_.max_runs();
  for (std::uint64_t threshold = 1; threshold <= config_.max_runs();
       ++threshold) {
    if (is_prunable(prunable, threshold)) continue;
    if (absorb(campaign, workers,
               run_once(program_, rt, threshold, baseline))) {
      cutoff = threshold;
      break;
    }
  }
  campaign.pruned_runs = count_pruned(prunable, cutoff);
  campaign.worker_stats = sorted_workers(std::move(workers));
}

void Experiment::run_parallel(Campaign& campaign, unsigned jobs,
                              const weave::CallTable& baseline,
                              const std::vector<bool>& prunable) {
  auto& parent = weave::Runtime::instance();

  // Workers claim thresholds from a shared counter; `stop` carries the
  // lowest terminal threshold discovered so far, cancelling runs past it
  // (the sequential loop would never have executed them).
  std::atomic<std::uint64_t> next{1};
  std::atomic<std::uint64_t> stop{config_.max_runs()};

  std::mutex mu;
  std::vector<std::pair<std::uint64_t, RunOutcome>> collected;
  std::exception_ptr failure;

  auto worker = [&](unsigned ordinal) {
    // An isolated runtime mirroring the driving thread's configuration;
    // installing it makes every Runtime::instance() hit on this thread —
    // i.e. every FAT_INVOKE wrapper of the subject program — see it.
    weave::Runtime rt;
    rt.adopt_config(parent);
    rt.trace.set_worker(static_cast<std::uint16_t>(ordinal));
    weave::ScopedRuntime install(rt);
    try {
      for (;;) {
        const std::uint64_t threshold = next.fetch_add(1);
        if (threshold > stop.load()) break;
        if (is_prunable(prunable, threshold)) continue;
        RunOutcome out = run_once(program_, rt, threshold, baseline);
        if (out.terminal) {
          std::uint64_t cur = stop.load();
          while (threshold < cur &&
                 !stop.compare_exchange_weak(cur, threshold)) {
          }
        }
        std::lock_guard<std::mutex> lock(mu);
        collected.emplace_back(threshold, std::move(out));
      }
    } catch (...) {
      // Propagate the first non-run failure (run_once absorbs subject
      // exceptions; this is e.g. bad_alloc) to the caller, as the
      // sequential loop would, and cancel the remaining workers.
      std::lock_guard<std::mutex> lock(mu);
      if (!failure) failure = std::current_exception();
      stop.store(0);
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(jobs);
  try {
    for (unsigned i = 0; i < jobs; ++i) pool.emplace_back(worker, i + 1);
  } catch (...) {
    // The system refused a thread: cancel and join the workers already
    // running (a joinable std::thread would terminate the process on
    // unwind), then report the failure to the caller.
    stop.store(0);
    for (std::thread& t : pool) t.join();
    throw;
  }
  for (std::thread& t : pool) t.join();
  if (failure) std::rethrow_exception(failure);

  // Merge in threshold order.  Thresholds are handed out contiguously, so
  // every run below the final cutoff exists exactly once; speculative runs
  // past it are discarded, reproducing the sequential loop bit for bit.
  const std::uint64_t cutoff = stop.load();
  std::sort(collected.begin(), collected.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::map<unsigned, WorkerStats> workers;
  for (auto& [threshold, out] : collected) {
    if (threshold > cutoff) continue;
    absorb(campaign, workers, std::move(out));
  }
  campaign.pruned_runs = count_pruned(prunable, cutoff);
  campaign.worker_stats = sorted_workers(std::move(workers));
}

}  // namespace fatomic::detect
