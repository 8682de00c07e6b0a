// perfbench_probe — measures one benchmark workload from outside the
// library, through its public API only, and prints one JSON document of raw
// measurements on stdout.  perfbench/run.py builds this program, checks the
// document against perfbench/reference.json and renders the metrics.
//
//   perfbench_probe --workload detect_cpp|detect_mask_java|serve_storm
//                    --seed N --seconds S --trace 0|1 --subjects DIR
//                    [--spans-out FILE] [--setup-only 1]
//
// One process, one client thread.  The run has three phases:
//
//   set-up    the workload's preparation, once, in this fresh process: what
//             a user waits for before the first operation.  --setup-only 1
//             stops after it; run.py starts several such processes and
//             reports the median as setup_s.
//   measured  a fixed number of whole passes of the workload's operation
//             sequence: --seconds divided by the workload's nominal pass
//             time, so the count depends on --seconds and not on how fast
//             the code is.  End-to-end times come from each operation's
//             best time over the passes (BestOps).
//   traced    (--trace 1 only) the measured phase is split in two: as many
//             passes again run with the program's own trace events on
//             (Config::tracing, Runtime::trace) and with this probe's spans
//             around every public call, to split time into per-layer self
//             times.
//
// An "operation" is what a user waits for: one request on serve_storm, one
// execution of the subject program (the Count baseline or one injector run)
// on the campaign workloads.  Correctness is checked per app campaign and
// per request; see perfbench/README.md for the metric definitions.
#include <malloc.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fatomic/analyze/static_report.hpp"
#include "fatomic/config.hpp"
#include "fatomic/detect/classify.hpp"
#include "fatomic/detect/experiment.hpp"
#include "fatomic/mask/masker.hpp"
#include "fatomic/recovery/derive.hpp"
#include "fatomic/report/json.hpp"
#include "fatomic/snapshot/backend.hpp"
#include "fatomic/trace/trace.hpp"
#include "fatomic/unwind/provenance.hpp"
#include "fatomic/weave/runtime.hpp"
#include "subjects/apps/apps.hpp"
#include "subjects/net/server.hpp"

namespace analyze = fatomic::analyze;
namespace detect = fatomic::detect;
namespace mask = fatomic::mask;
namespace recovery = fatomic::recovery;
namespace report = fatomic::report;
namespace snapshot = fatomic::snapshot;
namespace trace = fatomic::trace;
namespace weave = fatomic::weave;

namespace {

/// Nominal wall time of one untraced pass, in seconds, on the 4-vCPU Xeon VM
/// the benchmark was tuned on.  Passes per run = --seconds / this, fixed per
/// workload, so that every commit takes its per-operation best over the
/// same number of samples.
double nominal_pass_s(const std::string& workload) {
  if (workload == "detect_cpp") return 4.0;
  return 0.3;  // detect_mask_java and serve_storm
}
// serve_storm: the storm bench_recovery drives, with one client thread.
constexpr int kServeRequests = 20000;  ///< requests per pass (fixed length)
constexpr std::uint64_t kFaultPeriod = 7;
constexpr unsigned kRetryBudget = 3;
constexpr int kInvalidEvery = 50;  ///< every k-th request is empty (invalid)
constexpr int kRequestChars = 16;
constexpr int kEndpoints = 3;
constexpr std::size_t kBlockRequests = 100;  ///< requests per CPU-timed block

// ---- clocks ----------------------------------------------------------------

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double seconds_since(std::uint64_t t0) {
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

std::uint64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000u +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

double cpu_s(clockid_t clock = CLOCK_PROCESS_CPUTIME_ID) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Nearest-rank percentile over a sorted sample vector, in the samples' unit.
double percentile(const std::vector<std::uint64_t>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(sorted.size())));
  return static_cast<double>(sorted[rank == 0 ? 0 : rank - 1]);
}

// ---- the probe's own spans ------------------------------------------------

/// Spans recorded around each public call the benchmark makes: name, start,
/// end and the span that caused it (its parent).  Kept in memory and written
/// out once at the end.  Disabled, open() returns 0 and nothing is kept.
class SpanLog {
 public:
  struct Span {
    std::uint32_t id = 0;
    std::uint32_t parent = 0;
    std::string name;
    std::uint64_t t0 = 0;
    std::uint64_t t1 = 0;
    int pass = 0;
  };

  void set_enabled(bool on) { enabled_ = on; }
  void set_pass(int pass) { pass_ = pass; }

  std::uint32_t open(std::string name) {
    if (!enabled_) return 0;
    Span s;
    s.id = static_cast<std::uint32_t>(spans_.size() + 1);
    s.parent = stack_.empty() ? 0 : stack_.back();
    s.name = std::move(name);
    s.t0 = now_ns();
    s.pass = pass_;
    spans_.push_back(std::move(s));
    stack_.push_back(spans_.back().id);
    return spans_.back().id;
  }
  void close(std::uint32_t id) {
    if (id == 0) return;
    spans_[id - 1].t1 = now_ns();
    while (!stack_.empty()) {
      const std::uint32_t top = stack_.back();
      stack_.pop_back();
      if (top == id) break;
    }
  }

  /// Writes per-name totals (count, total and self time) over every span,
  /// plus every span of the first measured pass in full.
  void write(const std::string& path) const {
    std::vector<std::uint64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_)
      if (s.parent != 0) child_ns[s.parent - 1] += s.t1 - s.t0;
    struct Agg {
      std::uint64_t count = 0, total_ns = 0, self_ns = 0;
    };
    std::map<std::string, Agg> by_name;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      Agg& a = by_name[s.name];
      ++a.count;
      a.total_ns += s.t1 - s.t0;
      a.self_ns += (s.t1 - s.t0) - std::min(child_ns[i], s.t1 - s.t0);
    }
    std::ofstream out(path);
    out << "{\"totals\":{";
    bool first = true;
    for (const auto& [name, a] : by_name) {
      out << (first ? "" : ",") << '"' << report::json_escape(name)
          << "\":{\"count\":" << a.count << ",\"total_ns\":" << a.total_ns
          << ",\"self_ns\":" << a.self_ns << '}';
      first = false;
    }
    out << "},\"first_pass_spans\":[";
    first = true;
    for (const Span& s : spans_) {
      if (s.pass != 1) continue;
      out << (first ? "" : ",") << "{\"id\":" << s.id
          << ",\"parent\":" << s.parent << ",\"name\":\""
          << report::json_escape(s.name) << "\",\"t0_ns\":" << s.t0
          << ",\"t1_ns\":" << s.t1 << '}';
      first = false;
    }
    out << "]}\n";
  }

 private:
  bool enabled_ = false;
  int pass_ = 0;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
};

SpanLog g_spans;

/// Runs `fn` inside a span named `name` and returns its wall time in seconds
/// (timed whether or not spans are recorded).
template <class Fn>
double timed(const std::string& name, Fn&& fn) {
  const std::uint32_t id = g_spans.open(name);
  const std::uint64_t t0 = now_ns();
  fn();
  const double s = seconds_since(t0);
  g_spans.close(id);
  return s;
}

// ---- per-layer self times from the program's trace events ------------------

bool is_layer_span(trace::EventKind k) {
  switch (k) {
    case trace::EventKind::Snapshot:
    case trace::EventKind::ArenaCapture:
    case trace::EventKind::Compare:
    case trace::EventKind::ArenaCompare:
    case trace::EventKind::PartialCheckpoint:
    case trace::EventKind::Recovery:
      return true;
    default:
      return false;
  }
}

/// Self times of the program's layer spans: each span's duration minus the
/// part its direct children cover, with nesting read off the timestamps of
/// one worker's spans.  `covered_ns` is the union of all layer spans — the
/// part of a program execution that is not the weave layer's own time.
struct LayerTimes {
  std::uint64_t capture_ns = 0;
  std::uint64_t compare_ns = 0;
  std::uint64_t partial_ns = 0;
  std::uint64_t covered_ns = 0;
  std::vector<std::uint64_t> retry_ns;
  std::vector<std::uint64_t> early_return_ns;

  void add(const std::vector<trace::Event>& events) {
    std::vector<const trace::Event*> spans;
    for (const trace::Event& e : events)
      if (is_layer_span(e.kind)) spans.push_back(&e);
    std::sort(spans.begin(), spans.end(),
              [](const trace::Event* a, const trace::Event* b) {
                if (a->worker != b->worker) return a->worker < b->worker;
                if (a->ts_ns != b->ts_ns) return a->ts_ns < b->ts_ns;
                return a->dur_ns > b->dur_ns;
              });
    std::vector<std::uint64_t> child(spans.size(), 0);
    std::vector<std::size_t> stack;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const trace::Event& e = *spans[i];
      while (!stack.empty()) {
        const trace::Event& top = *spans[stack.back()];
        if (top.worker == e.worker && e.ts_ns < top.ts_ns + top.dur_ns) break;
        stack.pop_back();
      }
      if (stack.empty())
        covered_ns += e.dur_ns;
      else
        child[stack.back()] += e.dur_ns;
      stack.push_back(i);
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const trace::Event& e = *spans[i];
      const std::uint64_t self = e.dur_ns - std::min(child[i], e.dur_ns);
      switch (e.kind) {
        case trace::EventKind::Snapshot:
        case trace::EventKind::ArenaCapture:
          capture_ns += self;
          break;
        case trace::EventKind::Compare:
        case trace::EventKind::ArenaCompare:
          compare_ns += self;
          break;
        case trace::EventKind::PartialCheckpoint:
          partial_ns += self;
          break;
        default:
          if (e.detail == "retry") retry_ns.push_back(e.dur_ns);
          if (e.detail == "early_return") early_return_ns.push_back(e.dur_ns);
          break;
      }
    }
  }
};

// ---- passes ------------------------------------------------------------------

using Metrics = std::map<std::string, double>;

/// One pass's timed operations, in execution order: wall time per
/// operation, plus wall and thread CPU time per segment (one operation on
/// the campaign workloads; a block of requests on serve_storm, where a CPU
/// clock read would cost 4% of a request).
struct OpLog {
  std::vector<std::uint64_t> op_ns;
  std::vector<std::uint64_t> seg_wall_ns;
  std::vector<std::uint64_t> seg_cpu_ns;
};

struct Pass {
  bool traced = false;
  double wall_s = 0;
  double cpu_s = 0;
  OpLog ops;      ///< dropped once folded into RunState::best
  Metrics layer;  ///< per-layer values of this pass
};

/// Element-wise best over a run's passes of one kind (untraced or traced).
/// Every pass runs the same
/// operation sequence — the campaigns are deterministic and the request
/// stream is fixed — so operation i of one pass is comparable with
/// operation i of another.  Other tenants of the machine only ever slow an
/// operation down, so the best of each is its cost on a quiet machine, and
/// their sum is the pass at that cost.
struct BestOps {
  OpLog ops;
  double rest_wall_s = 0;  ///< pass time outside the segments
  double rest_cpu_s = 0;
  std::size_t passes = 0;
  bool consistent = true;

  static double sum_s(const std::vector<std::uint64_t>& v) {
    double s = 0;
    for (std::uint64_t x : v) s += static_cast<double>(x) * 1e-9;
    return s;
  }
  double wall_s() const { return sum_s(ops.seg_wall_ns) + rest_wall_s; }
  double cpu_s() const { return sum_s(ops.seg_cpu_ns) + rest_cpu_s; }

  void add(const Pass& p) {
    const double rest_wall = p.wall_s - sum_s(p.ops.seg_wall_ns);
    const double rest_cpu = p.cpu_s - sum_s(p.ops.seg_cpu_ns);
    if (passes++ == 0) {
      ops = p.ops;
      rest_wall_s = rest_wall;
      rest_cpu_s = rest_cpu;
      return;
    }
    auto fold = [this](std::vector<std::uint64_t>& best,
                       const std::vector<std::uint64_t>& v) {
      if (best.size() != v.size()) {
        consistent = false;
        return;
      }
      for (std::size_t i = 0; i < v.size(); ++i)
        best[i] = std::min(best[i], v[i]);
    };
    fold(ops.op_ns, p.ops.op_ns);
    fold(ops.seg_wall_ns, p.ops.seg_wall_ns);
    fold(ops.seg_cpu_ns, p.ops.seg_cpu_ns);
    rest_wall_s = std::min(rest_wall_s, rest_wall);
    rest_cpu_s = std::min(rest_cpu_s, rest_cpu);
  }
};

/// Everything one workload run accumulates across its passes.
struct RunState {
  std::vector<Pass> passes;
  BestOps best;         ///< over the untraced passes
  BestOps best_traced;  ///< over the traced passes
  // Correctness, per checked operation.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
  /// First pass's per-app verdicts (run.py checks them against the
  /// reference); later passes must reproduce them.
  std::map<std::string, std::string> verdicts;
};

void add_stats(Metrics& m, const weave::RuntimeStats& s) {
  auto add = [&m](const char* name, std::uint64_t v) {
    m[name] += static_cast<double>(v);
  };
  add("weave.wrapped_calls", s.wrapped_calls);
  add("weave.exceptions_thrown", s.exceptions_thrown);
  add("snapshot.captures", s.snapshots_taken);
  add("snapshot.compares", s.comparisons);
  add("snapshot.units", s.checkpoint_units);
  add("snapshot.partial_checkpoints", s.partial_checkpoints);
  add("snapshot.partial_fallbacks", s.partial_fallbacks);
  add("snapshot.rollbacks", s.rollbacks);
  add("recovery.faults", s.faults_injected);
  add("recovery.retries", s.retry_attempts);
  add("recovery.retry_successes", s.retry_successes);
  add("recovery.early_returns", s.early_returns);
}

void add_layer_times(Metrics& m, const LayerTimes& t, std::uint64_t exec_ns) {
  m["snapshot.capture_self_s"] += static_cast<double>(t.capture_ns) * 1e-9;
  m["snapshot.compare_self_s"] += static_cast<double>(t.compare_ns) * 1e-9;
  m["snapshot.partial_self_s"] += static_cast<double>(t.partial_ns) * 1e-9;
  m["weave.self_s"] +=
      static_cast<double>(exec_ns - std::min(exec_ns, t.covered_ns)) * 1e-9;
}

// ---- campaign workloads ------------------------------------------------------

std::string class_names_json(const detect::Classification& cls,
                             detect::MethodClass c) {
  std::string out = "[";
  for (const detect::MethodResult& m : cls.methods) {
    if (m.cls != c) continue;
    if (out.size() > 1) out += ',';
    out += '"' + report::json_escape(m.method->qualified_name()) + '"';
  }
  return out + "]";
}

/// One app's observable verdict: what the reference pins.
std::string app_verdict_json(const detect::Campaign& campaign,
                             const detect::Classification& cls,
                             std::size_t remaining_nonatomic, bool masked) {
  std::string out =
      "{\"runs\":" + std::to_string(campaign.runs.size()) +
      ",\"injections\":" + std::to_string(campaign.injections()) +
      ",\"atomic\":" + class_names_json(cls, detect::MethodClass::Atomic) +
      ",\"conditional\":" +
      class_names_json(cls, detect::MethodClass::ConditionalNonAtomic) +
      ",\"pure\":" +
      class_names_json(cls, detect::MethodClass::PureNonAtomic);
  if (masked)
    out += ",\"remaining_nonatomic\":" + std::to_string(remaining_nonatomic);
  return out + "}";
}

/// Times every execution of an app's program — the operation of the
/// campaign workloads.  Exceptions escaping the program are part of a
/// campaign (escaped runs) and pass through, timed.
class ProgramTimer {
 public:
  ProgramTimer(std::function<void()> program, std::string span_name,
               OpLog& log)
      : program_(std::move(program)),
        span_name_(std::move(span_name)),
        log_(log) {}
  ProgramTimer(const ProgramTimer&) = delete;
  ProgramTimer& operator=(const ProgramTimer&) = delete;

  /// The timed program; captures `this`, so it must not outlive the timer.
  std::function<void()> program() {
    return [this] {
      struct Stop {
        ProgramTimer& t;
        std::uint32_t id;
        std::uint64_t cpu0;
        std::uint64_t t0;
        ~Stop() {
          const std::uint64_t d = now_ns() - t0;
          const std::uint64_t cpu = thread_cpu_ns() - cpu0;
          g_spans.close(id);
          t.total_ns += d;
          t.log_.op_ns.push_back(d);
          t.log_.seg_wall_ns.push_back(d);
          t.log_.seg_cpu_ns.push_back(cpu);
        }
      } stop{*this, g_spans.open(span_name_), thread_cpu_ns(), now_ns()};
      program_();
    };
  }

  std::uint64_t total_ns = 0;

 private:
  std::function<void()> program_;
  std::string span_name_;
  OpLog& log_;
};

struct CampaignSetup {
  std::vector<subjects::apps::App> apps;
  std::shared_ptr<const weave::PlanMap> plans;  ///< detect_mask_java only
  bool masked = false;
};

void campaign_pass(const CampaignSetup& setup, bool traced, Pass& pass,
                   RunState& run) {
  const bool first = run.passes.empty();
  for (const subjects::apps::App& app : setup.apps) {
    ProgramTimer timer(app.program, "program." + app.name, pass.ops);
    const std::function<void()> program = timer.program();
    LayerTimes layers;
    const std::uint32_t app_span = g_spans.open("app." + app.name);

    fatomic::Config cfg;
    cfg.jobs(1).tracing(traced);
    detect::Campaign campaign;
    const double campaign_s = timed("detect::Experiment::run", [&] {
      campaign = detect::Experiment(program, cfg).run();
    });
    detect::Classification cls;
    double classify_s = timed("detect::classify",
                              [&] { cls = detect::classify(campaign); });
    pass.layer["report.json_s"] += timed("report::campaign_json", [&] {
      if (report::campaign_json(campaign).empty())
        run.problems.push_back(app.name + ": empty campaign json");
    });
    if (traced) layers.add(campaign.trace.events);
    add_stats(pass.layer, campaign.stats);
    pass.layer["detect.campaign_s"] += campaign_s;
    pass.layer["detect.campaign_s." + app.name] += campaign_s;
    pass.layer["detect.runs"] += static_cast<double>(campaign.runs.size());
    pass.layer["detect.injections"] +=
        static_cast<double>(campaign.injections());

    std::size_t remaining = 0;
    if (setup.masked) {
      cfg.mask(mask::wrap_pure(cls, cfg.policy()))
          .checkpoint_plans(setup.plans);
      mask::MaskVerification verified;
      pass.layer["mask.verify_s"] += timed("mask::verify_masked_full", [&] {
        verified = mask::verify_masked_full(program, cfg);
      });
      detect::Classification after;
      classify_s += timed("detect::classify",
                          [&] { after = detect::classify(verified.campaign); });
      remaining = after.nonatomic_names().size();
      pass.layer["mask.remaining_nonatomic"] += static_cast<double>(remaining);
      if (traced) layers.add(verified.campaign.trace.events);
      add_stats(pass.layer, verified.campaign.stats);
    }
    pass.layer["detect.classify_s"] += classify_s;
    g_spans.close(app_span);
    if (traced) add_layer_times(pass.layer, layers, timer.total_ns);

    const std::string verdict =
        app_verdict_json(campaign, cls, remaining, setup.masked);
    ++run.attempted;
    if (first) {
      run.verdicts[app.name] = verdict;
    } else if (run.verdicts[app.name] != verdict) {
      ++run.failed;
      run.problems.push_back(app.name + ": verdict differs between passes");
    } else if (remaining != 0) {
      ++run.failed;  // the first pass's failure is the reference check's
    }
  }
}

// ---- serve_storm ---------------------------------------------------------------

struct ServeSetup {
  std::shared_ptr<const weave::PlanMap> plans;
  std::shared_ptr<const recovery::PolicyTable> table;
  std::vector<std::string> requests;  ///< generated from the seed
};

/// Deployment configuration of the calling thread's runtime: bench_recovery's
/// storm with the validator and tracing off (tracing on for traced passes).
/// The destructor returns the runtime to the plain program.
class ServeRuntime {
 public:
  ServeRuntime(const ServeSetup& setup, bool traced)
      : rt_(weave::Runtime::instance()) {
    rt_.set_mode(weave::Mode::Mask);
    rt_.set_wrap_predicate([](const weave::MethodInfo& mi) {
      return mi.qualified_name().rfind("subjects::net::Server::", 0) == 0;
    });
    rt_.set_checkpoint_plans(setup.plans);
    rt_.set_recovery_policies(setup.table);
    rt_.validate_checkpoints = false;
    rt_.fault_period = 0;
    if (traced) rt_.trace.enable(now_ns());
  }
  ~ServeRuntime() {
    rt_.fault_period = 0;
    rt_.trace.take(0);
    rt_.trace.disable();
    rt_.set_recovery_policies(nullptr);
    rt_.set_checkpoint_plans(nullptr);
    rt_.set_wrap_predicate(nullptr);
    rt_.set_mode(weave::Mode::Direct);
  }
  ServeRuntime(const ServeRuntime&) = delete;
  ServeRuntime& operator=(const ServeRuntime&) = delete;
  weave::Runtime& rt() { return rt_; }

 private:
  weave::Runtime& rt_;
};

void serve_pass(const ServeSetup& setup, bool traced, Pass& pass,
                RunState& run) {
  ServeRuntime deploy(setup, traced);
  weave::Runtime& rt = deploy.rt();
  subjects::net::Server server;
  server.provision(kEndpoints);
  const weave::RuntimeStats before = rt.stats;
  rt.fault_counter = 0;
  rt.fault_period = kFaultPeriod;  // armed only after provisioning

  const std::size_t n = setup.requests.size();
  std::vector<std::uint64_t>& lat = pass.ops.op_ns;
  lat.assign(n, 0);
  std::uint64_t failed = 0;
  std::uint64_t exec_ns = 0;
  std::uint64_t block_wall0 = now_ns();
  std::uint64_t block_cpu0 = thread_cpu_ns();
  for (std::size_t i = 0; i < n; ++i) {
    if (i != 0 && i % kBlockRequests == 0) {
      const std::uint64_t wall = now_ns();
      const std::uint64_t cpu = thread_cpu_ns();
      pass.ops.seg_wall_ns.push_back(wall - block_wall0);
      pass.ops.seg_cpu_ns.push_back(cpu - block_cpu0);
      block_wall0 = wall;
      block_cpu0 = cpu;
    }
    const std::string& request = setup.requests[i];
    const std::uint32_t id = g_spans.open("subjects::net::Server::handle");
    const std::uint64_t t0 = now_ns();
    bool ok = false;
    try {
      const std::string reply = server.handle(request);
      ok = request.empty() ? reply.empty() : reply == "ok:" + request;
    } catch (...) {
      ok = false;  // an exception escaped the recovery engine
    }
    lat[i] = now_ns() - t0;
    g_spans.close(id);
    exec_ns += lat[i];
    if (!ok) ++failed;
  }
  pass.ops.seg_wall_ns.push_back(now_ns() - block_wall0);
  pass.ops.seg_cpu_ns.push_back(thread_cpu_ns() - block_cpu0);
  rt.fault_period = 0;
  const weave::RuntimeStats stats = rt.stats - before;

  run.attempted += n;
  run.failed += failed;
  if (failed != 0)
    run.problems.push_back(std::to_string(failed) +
                           " requests failed or got a wrong reply");
  if (!server.invariants_hold()) {
    run.failed += n - failed;  // the pass's state is corrupt: nothing counts
    run.problems.push_back("Server::invariants_hold() failed after the storm");
  }
  if (stats.restore_errors != 0) {
    run.failed += 1;
    run.problems.push_back(std::to_string(stats.restore_errors) +
                           " restore errors");
  }

  add_stats(pass.layer, stats);
  const double decided =
      static_cast<double>(stats.retry_successes + stats.retry_exhaustions);
  pass.layer["recovery.recovery_rate"] =
      decided == 0 ? 0.0 : static_cast<double>(stats.retry_successes) / decided;
  pass.layer["serve.journal_kb_end"] =
      static_cast<double>(server.journal().size()) / 1024.0;

  if (traced) {
    LayerTimes layers;
    layers.add(rt.trace.take(0));
    add_layer_times(pass.layer, layers, exec_ns);
    std::sort(layers.retry_ns.begin(), layers.retry_ns.end());
    std::sort(layers.early_return_ns.begin(), layers.early_return_ns.end());
    pass.layer["recovery.retry_p50_us"] =
        percentile(layers.retry_ns, 0.5) / 1000.0;
    pass.layer["recovery.early_return_p50_us"] =
        percentile(layers.early_return_ns, 0.5) / 1000.0;
  }
}

/// Mean request latency per tenth of the storm: how state size drives cost.
void add_tenths(const std::vector<std::uint64_t>& lat, Metrics& m) {
  const std::size_t n = lat.size();
  for (std::size_t tenth = 0; tenth < 10; ++tenth) {
    const std::size_t lo = n * tenth / 10;
    const std::size_t hi = n * (tenth + 1) / 10;
    double sum = 0;
    for (std::size_t i = lo; i < hi; ++i) sum += static_cast<double>(lat[i]);
    m["serve.latency_tenth_" + std::to_string(tenth) + "_us"] =
        hi > lo ? sum / static_cast<double>(hi - lo) / 1000.0 : 0.0;
  }
  m["serve.latency_first_tenth_us"] = m["serve.latency_tenth_0_us"];
  m["serve.latency_last_tenth_us"] = m["serve.latency_tenth_9_us"];
}

// ---- set-up --------------------------------------------------------------------

analyze::StaticReport analyze_timed(const std::string& subjects, Metrics& m) {
  analyze::StaticReport sreport;
  m["analyze.sources_s"] = timed("analyze::analyze_sources", [&] {
    sreport = analyze::analyze_sources(subjects);
  });
  m["analyze.proven_methods"] = static_cast<double>(sreport.proven_count());
  m["analyze.partial_plans"] =
      static_cast<double>(sreport.write_sets.partial_count());
  return sreport;
}

std::shared_ptr<const weave::PlanMap> plans_timed(
    const analyze::StaticReport& sreport, Metrics& m) {
  std::shared_ptr<const weave::PlanMap> plans;
  m["mask.make_plans_s"] =
      timed("mask::make_plans", [&] { plans = mask::make_plans(sreport); });
  return plans;
}

/// detect_cpp: one plain execution of each program in a fresh process — the
/// lazy set-up (method registration, first allocations) a campaign would
/// otherwise pay inside its first run.  detect_mask_java adds the static
/// analysis and the write-set plans its masked verification uses.
void setup_campaign(const std::string& workload, const std::string& subjects,
                    CampaignSetup& out, Metrics& m) {
  out.masked = workload == "detect_mask_java";
  out.apps = subjects::apps::apps_of(out.masked ? "Java" : "C++");
  if (out.masked) out.plans = plans_timed(analyze_timed(subjects, m), m);
  for (const subjects::apps::App& app : out.apps) app.program();
}

/// serve_storm: static analysis, the derived policy table with the operator
/// overlay, the write-set plans, a provisioned server under the deployment
/// configuration, and the seeded request stream.
void setup_serve(const std::string& subjects, std::uint64_t seed,
                 ServeSetup& out, Metrics& m) {
  const analyze::StaticReport sreport = analyze_timed(subjects, m);
  recovery::DerivedPolicies derived;
  m["recovery.derive_s"] = timed("recovery::derive_policy_table", [&] {
    derived = recovery::derive_policy_table(sreport, nullptr);
  });
  // bench_recovery's overlay: handle() retries transient faults after
  // rollback and early-returns organically invalid requests.
  recovery::PolicyTable table = *derived.table;
  recovery::RecoveryPolicy serve;
  serve.action = recovery::Action::Retry;
  serve.retry_budget = kRetryBudget;
  serve.rollback_before_retry = true;
  serve.exception_overrides["subjects::net::NetError"] =
      recovery::Action::EarlyReturn;
  table.set("subjects::net::Server::handle", serve);
  out.table = std::make_shared<const recovery::PolicyTable>(std::move(table));
  out.plans = plans_timed(sreport, m);
  {
    ServeRuntime deploy(out, false);
    subjects::net::Server server;
    server.provision(kEndpoints);
  }
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> symbol(0, 35);
  out.requests.assign(kServeRequests, std::string());
  for (int i = 0; i < kServeRequests; ++i) {
    if ((i + 1) % kInvalidEvery == 0) continue;  // organic invalid request
    std::string& r = out.requests[static_cast<std::size_t>(i)];
    for (int c = 0; c < kRequestChars; ++c) {
      const int v = symbol(rng);
      r.push_back(static_cast<char>(v < 10 ? '0' + v : 'a' + (v - 10)));
    }
  }
}

// ---- run metadata --------------------------------------------------------------

/// Cores the machine actually gives this process: spin one thread per
/// hardware thread for a fixed wall interval and divide the CPU time they
/// got by it.  hardware_concurrency() counts threads, not sustained cores.
double effective_parallelism() {
  const unsigned n = std::max(1u, std::thread::hardware_concurrency());
  constexpr double kSpinS = 0.2;
  std::vector<double> got(n, 0.0);
  std::vector<std::thread> threads;
  const std::uint64_t t0 = now_ns();
  for (unsigned i = 0; i < n; ++i)
    threads.emplace_back([&got, i] {
      const double c0 = cpu_s(CLOCK_THREAD_CPUTIME_ID);
      const std::uint64_t start = now_ns();
      while (seconds_since(start) < kSpinS) {
      }
      got[i] = cpu_s(CLOCK_THREAD_CPUTIME_ID) - c0;
    });
  for (std::thread& t : threads) t.join();
  const double wall = seconds_since(t0);
  double total = 0;
  for (double g : got) total += g;
  return wall > 0 ? total / wall : 0.0;
}

/// This program's resident-set high-water mark.  VmHWM belongs to the
/// address space exec created; getrusage's ru_maxrss would also count the
/// launching process's footprint, which Linux carries across exec.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // in KiB
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// ---- output --------------------------------------------------------------------

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string str(const std::string& s) {
  return '"' + report::json_escape(s) + '"';
}

std::string metrics_json(const Metrics& m) {
  std::string out = "{";
  for (const auto& [k, v] : m) {
    if (out.size() > 1) out += ',';
    out += str(k) + ':' + num(v);
  }
  return out + "}";
}

/// Minimum over the selected passes of every per-pass metric: the best
/// pass's time, and for counts (equal in every pass) the count.
Metrics best_layer(const std::vector<Pass>& passes, bool traced) {
  Metrics out;
  for (const Pass& p : passes)
    if (p.traced == traced)
      for (const auto& [k, v] : p.layer) {
        const auto [it, fresh] = out.emplace(k, v);
        if (!fresh) it->second = std::min(it->second, v);
      }
  return out;
}

/// Per-layer names every workload reports; 0 where it does not exercise the
/// layer (serve_storm makes no injector runs, detect_cpp derives no plans).
Metrics zero_layer_metrics() {
  Metrics m;
  for (const char* name :
       {"analyze.sources_s", "analyze.proven_methods", "analyze.partial_plans",
        "detect.campaign_s", "detect.classify_s", "detect.runs",
        "detect.injections", "weave.wrapped_calls", "weave.exceptions_thrown",
        "weave.self_s", "snapshot.captures", "snapshot.compares",
        "snapshot.compare_share", "snapshot.units",
        "snapshot.partial_checkpoints", "snapshot.partial_fallbacks",
        "snapshot.rollbacks", "snapshot.capture_self_s",
        "snapshot.compare_self_s", "snapshot.partial_self_s",
        "mask.make_plans_s", "mask.verify_s", "mask.remaining_nonatomic",
        "recovery.derive_s", "recovery.faults", "recovery.retries",
        "recovery.retry_successes", "recovery.early_returns",
        "recovery.recovery_rate", "recovery.retry_p50_us",
        "recovery.early_return_p50_us", "serve.latency_first_tenth_us",
        "serve.latency_last_tenth_us", "serve.journal_kb_end",
        "report.json_s", "trace.overhead_share"})
    m[name] = 0.0;
  for (const subjects::apps::App& app : subjects::apps::all_apps())
    m["detect.campaign_s." + app.name] = 0.0;
  return m;
}

bool traced_metric(const std::string& k) {
  return k.find("self_s") != std::string::npos ||
         k.find("_p50_us") != std::string::npos;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string subjects;
  std::string spans_out;
  bool setup_only = false;
};

bool parse(int argc, char** argv, Args& a) {
  if (argc % 2 != 1) return false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload")
      a.workload = v;
    else if (k == "--seed")
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds")
      a.seconds = std::strtod(v.c_str(), nullptr);
    else if (k == "--trace")
      a.trace = v == "1";
    else if (k == "--subjects")
      a.subjects = v;
    else if (k == "--spans-out")
      a.spans_out = v;
    else if (k == "--setup-only")
      a.setup_only = v == "1";
    else
      return false;
  }
  return a.seconds > 0 && !a.subjects.empty() &&
         (a.workload == "detect_cpp" || a.workload == "detect_mask_java" ||
          a.workload == "serve_storm");
}

int run(const Args& args) {
  const bool serve = args.workload == "serve_storm";
  g_spans.set_enabled(args.trace);

  // Set-up, once, in this fresh process.
  CampaignSetup campaign_setup;
  ServeSetup serve_setup;
  Metrics setup_layer;
  const double setup_s = timed("setup", [&] {
    if (serve)
      setup_serve(args.subjects, args.seed, serve_setup, setup_layer);
    else
      setup_campaign(args.workload, args.subjects, campaign_setup,
                     setup_layer);
  });
  if (args.setup_only) {
    std::printf("{\"setup_s\":%s,\"per_layer\":%s}\n", num(setup_s).c_str(),
                metrics_json(setup_layer).c_str());
    return 0;
  }

  // Measured phase: a fixed number of untraced passes, and with --trace 1
  // as many traced ones after them.
  RunState state;
  const double budget = args.trace ? args.seconds / 2 : args.seconds;
  const int passes = std::max(
      1, static_cast<int>(std::lround(budget / nominal_pass_s(args.workload))));
  auto one_pass = [&](bool traced) {
    Pass pass;
    pass.traced = traced;
    g_spans.set_pass(static_cast<int>(state.passes.size()) + 1);
    const std::uint32_t id = g_spans.open(traced ? "pass.traced" : "pass");
    const double c0 = cpu_s();
    const std::uint64_t t0 = now_ns();
    if (serve)
      serve_pass(serve_setup, traced, pass, state);
    else
      campaign_pass(campaign_setup, traced, pass, state);
    pass.wall_s = seconds_since(t0);
    pass.cpu_s = cpu_s() - c0;
    g_spans.close(id);
    (traced ? state.best_traced : state.best).add(pass);
    pass.ops = {};
    state.passes.push_back(std::move(pass));
  };
  // Peak memory through set-up and one pass: later passes repeat the same
  // work.
  one_pass(false);
  const double peak_mb = peak_rss_mb();
  for (int i = 1; i < passes; ++i) one_pass(false);
  if (args.trace)
    for (int i = 0; i < passes; ++i) one_pass(true);

  // End-to-end figures from the untraced passes' element-wise best
  // (BestOps): the pass with each operation at its quiet-machine cost.
  const BestOps& best = state.best;
  if (!best.consistent || !state.best_traced.consistent)
    state.problems.push_back("passes ran different operation sequences");
  const double ops = static_cast<double>(best.ops.op_ns.size());
  std::vector<std::uint64_t> latency = best.ops.op_ns;
  std::sort(latency.begin(), latency.end());
  Metrics e2e;
  e2e["setup_s"] = setup_s;  // one sample; run.py adds set-up-only processes
  e2e["wall_s"] = best.wall_s();
  e2e["cpu_s"] = best.cpu_s();
  e2e["throughput_rps"] = ops / e2e["wall_s"];
  e2e["cpu_us_per_request"] = e2e["cpu_s"] / ops * 1e6;
  e2e["latency_p50_us"] = percentile(latency, 0.50) / 1000.0;
  e2e["latency_p99_us"] = percentile(latency, 0.99) / 1000.0;
  e2e["peak_rss_mb"] = peak_mb;

  // Per-layer figures: counts and call timings from the untraced passes,
  // self times from the traced ones.
  Metrics layer = zero_layer_metrics();
  for (const auto& [k, v] : best_layer(state.passes, false))
    if (!traced_metric(k)) layer[k] = v;
  for (const auto& [k, v] : setup_layer) layer[k] = v;
  if (serve) add_tenths(best.ops.op_ns, layer);
  if (args.trace) {
    for (const auto& [k, v] : best_layer(state.passes, true))
      if (traced_metric(k)) layer[k] = v;
    layer["trace.overhead_share"] =
        state.best_traced.cpu_s() / best.cpu_s() - 1.0;
  }
  if (layer["snapshot.captures"] > 0)
    layer["snapshot.compare_share"] =
        layer["snapshot.compares"] / layer["snapshot.captures"];

  if (args.trace && !args.spans_out.empty()) g_spans.write(args.spans_out);

  std::string problems = "[";
  for (const std::string& p : state.problems)
    problems += (problems.size() > 1 ? "," : "") + str(p);
  problems += "]";
  std::string apps = "{";
  for (const auto& [name, verdict] : state.verdicts)
    apps += (apps.size() > 1 ? "," : "") + str(name) + ':' + verdict;
  apps += "}";
  const char* env_backend = std::getenv("FATOMIC_CHECKPOINT_BACKEND");

  std::printf(
      "{\"workload\":%s,\"seed\":%llu,\"trace\":%d,"
      "\"meta\":{\"build_type\":%s,\"checkpoint_backend\":%s,"
      "\"backend_env\":%s,\"provenance_available\":%s,"
      "\"hardware_threads\":%u,\"effective_parallelism\":%s},"
      "\"passes\":%zu,\"untraced_passes\":%zu,\"latency_samples\":%zu,"
      "\"end_to_end\":%s,\"per_layer\":%s,"
      "\"attempted\":%llu,\"failed\":%llu,\"problems\":%s,\"apps\":%s}\n",
      str(args.workload).c_str(), static_cast<unsigned long long>(args.seed),
      args.trace ? 1 : 0, str(PERFBENCH_BUILD_TYPE).c_str(),
      str(snapshot::to_string(snapshot::default_backend())).c_str(),
      str(env_backend != nullptr ? env_backend : "").c_str(),
      fatomic::unwind::available() ? "true" : "false",
      std::thread::hardware_concurrency(),
      num(effective_parallelism()).c_str(), state.passes.size(), best.passes,
      latency.size(), metrics_json(e2e).c_str(),
      metrics_json(layer).c_str(),
      static_cast<unsigned long long>(state.attempted),
      static_cast<unsigned long long>(state.failed), problems.c_str(),
      apps.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Keep freed memory mapped: no trimming of the heap top, a 256 MiB top
  // pad, and no per-allocation mmap below 32 MiB (the largest threshold
  // glibc accepts).  Otherwise every pass gives memory back to the kernel
  // and faults it in again, and on a virtual machine the cost of a page
  // fault varies with the host's load: a detect_cpp pass then took
  // 3.0-4.6 s from run to run, against 3.0-3.4 s with these settings.
  mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
  mallopt(M_TOP_PAD, 256 << 20);
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  Args args;
  if (!parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench_probe --workload "
                 "detect_cpp|detect_mask_java|serve_storm --seed N "
                 "--seconds S --trace 0|1 --subjects DIR [--spans-out FILE] "
                 "[--setup-only 1]\n");
    return 2;
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_probe: %s\n", e.what());
    return 3;
  }
}
