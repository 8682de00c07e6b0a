// Structured campaign tracing: typed events recorded by the weaving runtime
// and the campaign driver, merged deterministically at campaign end.
//
// The injector is a measurement instrument — one run per injection point,
// classifying methods by observed state divergence — yet aggregate counters
// (RuntimeStats) cannot show *where* wall-clock and checkpoint work go
// inside a run, which injection points dominate, or how parallel workers
// interleave.  This layer answers those questions with trace-level evidence
// (TripleAgent's monitoring-agent idea applied to our campaign driver):
//
//  - Each Runtime owns a TraceBuffer.  Runtimes are strictly per-thread
//    (DESIGN.md §6), so recording is a plain vector append — no locks on the
//    hot path, and the disabled path costs one predicted branch per event
//    site (`if (tb.enabled())`).
//  - Events carry the owning run's injection threshold.  The campaign driver
//    extracts each run's event slice and merges slices in threshold order,
//    so the merged stream is identical for jobs=1 and jobs=N *by
//    construction* — timestamps and worker ordinals are the only execution
//    artifacts (canonical_stream() excludes exactly those).
//  - One switch: fatomic::Config::tracing arms the buffer per campaign.
//
// Exporters (Chrome/Perfetto JSON, summary table, campaign_json section)
// live in trace/export.hpp; derived metrics in trace/metrics.hpp.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "fatomic/weave/method_info.hpp"

namespace fatomic::trace {

enum class EventKind : std::uint8_t {
  Campaign,           ///< span: the whole campaign (threshold 0, driver)
  Baseline,           ///< span: the Count-mode baseline run (threshold 0)
  Run,                ///< span: one injector run; value = marks recorded
  Injection,          ///< instant: an exception was injected at `method`
  Snapshot,           ///< span: full checkpoint (arena capture); value = nodes
  PartialCheckpoint,  ///< span: field-granular checkpoint; value = leaves
  PartialFallback,    ///< instant: partial capture bailed, full copy follows
  Compare,            ///< span: post-exception graph compare; value = atomic
  Rollback,           ///< span: the restore of a checkpoint after an
                      ///< exception, full or partial (value = 1 for
                      ///< partial); excludes the validator's shadow compare
  PlanLookup,         ///< instant: wrap consulted the plan map; value = hit
  MaskScope,          ///< instant: MaskedScope entered (1) / left (0)
  Validator,          ///< instant: shadow-checkpoint divergence detected
  ArenaCapture,       ///< never emitted: captures are Snapshot spans; kept
                      ///< so trace readers that switch on it still compile
  ArenaCompare,       ///< never emitted: compares are Compare spans; kept
                      ///< for the same reason
  RestoreFailure,     ///< instant: rollback failed mid-replay (RestoreError)
  ThrowSite,          ///< instant: captured throw backtrace; value = stack id
  Recovery,           ///< span: policy-engine recovery; detail = action tag
  Fault,              ///< instant: production-mode fault raised (fault_period)
};

/// Stable lowercase tag ("run", "snapshot", ...) used by every exporter.
const char* to_string(EventKind kind);

struct Event {
  EventKind kind = EventKind::Run;
  /// Executing worker ordinal: 0 = the campaign-driving thread, 1..N =
  /// parallel campaign workers.  Execution placement, not semantics — like
  /// timestamps it is excluded from the canonical stream.
  std::uint16_t worker = 0;
  /// Steady-clock ns since the campaign epoch; workers share the epoch so
  /// their timelines are directly comparable.
  std::uint64_t ts_ns = 0;
  std::uint64_t dur_ns = 0;  ///< 0 for instant events
  /// The owning run's injection threshold; 0 for campaign-scope events.
  std::uint64_t injection_point = 0;
  const weave::MethodInfo* method = nullptr;
  /// Kind-specific magnitude: checkpoint units, marks, plan hit, ...
  std::uint64_t value = 0;
  /// Kind-specific annotation (injected exception type, scope label).
  std::string detail;
};

/// Per-thread event sink owned by weave::Runtime.  Disabled (the default)
/// it records nothing; every hook first checks enabled(), so the disabled
/// path is one predicted branch (bench_trace_overhead gates this).
class TraceBuffer {
 public:
  bool enabled() const { return enabled_; }

  /// Arms the buffer.  `epoch_ns` is the campaign's steady-clock start —
  /// every runtime of one campaign gets the same, so timelines align.
  void enable(std::uint64_t epoch_ns) {
    enabled_ = true;
    epoch_ns_ = epoch_ns;
  }
  void disable() { enabled_ = false; }
  std::uint64_t epoch() const { return epoch_ns_; }

  void set_worker(std::uint16_t w) { worker_ = w; }
  std::uint16_t worker() const { return worker_; }

  /// The owning run's threshold stamped on subsequent events (0 = campaign
  /// scope).  Runtime::begin_run sets it; the driver resets it to 0 before
  /// recording campaign-scope events.
  void set_run(std::uint64_t threshold) { threshold_ = threshold; }

  /// Steady-clock ns since the epoch.  Hot call sites use begin_span(),
  /// which short-circuits to 0 when disabled.
  std::uint64_t now_ns() const {
    const auto t = std::chrono::steady_clock::now().time_since_epoch();
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(t).count();
    return static_cast<std::uint64_t>(ns) - epoch_ns_;
  }
  std::uint64_t begin_span() const { return enabled() ? now_ns() : 0; }

  /// Records a span started at begin_span()'s `t0`.  No-op when disabled.
  void span(EventKind kind, std::uint64_t t0,
            const weave::MethodInfo* method = nullptr, std::uint64_t value = 0,
            std::string detail = {}) {
    if (!enabled()) return;
    const std::uint64_t t1 = now_ns();
    events_.push_back(Event{kind, worker_, t0, t1 - t0, threshold_, method,
                            value, std::move(detail)});
  }

  /// Records an instant event.  No-op when disabled.
  void instant(EventKind kind, const weave::MethodInfo* method = nullptr,
               std::uint64_t value = 0, std::string detail = {}) {
    if (!enabled()) return;
    events_.push_back(Event{kind, worker_, now_ns(), 0, threshold_, method,
                            value, std::move(detail)});
  }

  std::size_t size() const { return events_.size(); }

  /// Moves events [from, size()) out of the buffer — how the campaign
  /// driver slices one run's events off the executing worker's buffer.
  std::vector<Event> take(std::size_t from);

 private:
  bool enabled_ = false;
  std::uint16_t worker_ = 0;
  std::uint64_t epoch_ns_ = 0;
  std::uint64_t threshold_ = 0;
  std::vector<Event> events_;
};

/// The deterministically merged event stream of one campaign: campaign-scope
/// events first, then every kept run's events in threshold order, then the
/// closing campaign span.
struct Trace {
  bool enabled = false;
  std::vector<Event> events;

  std::uint64_t duration_ns() const;  ///< the Campaign span's duration
};

/// Canonical text form of the merged stream, one line per event, excluding
/// the execution artifacts (timestamps, durations, worker ordinals).  Two
/// campaigns of the same deterministic program — any jobs values — produce
/// byte-identical canonical streams; the determinism tests compare exactly
/// this.
std::string canonical_stream(const Trace& trace);

}  // namespace fatomic::trace
