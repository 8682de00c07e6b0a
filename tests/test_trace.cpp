// Campaign observability layer: trace determinism across jobs values,
// Chrome trace_event schema validity (via the repo's own JSON parser),
// per-worker stats attribution, and the metrics registry.
#include "fatomic/trace/trace.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "fatomic/config.hpp"
#include "fatomic/detect/classify.hpp"
#include "fatomic/detect/experiment.hpp"
#include "fatomic/mask/masker.hpp"
#include "fatomic/report/json.hpp"
#include "fatomic/report/json_parse.hpp"
#include "fatomic/trace/export.hpp"
#include "fatomic/trace/metrics.hpp"
#include "subjects/apps/apps.hpp"
#include "testing/synthetic.hpp"

namespace detect = fatomic::detect;
namespace report = fatomic::report;
namespace trace = fatomic::trace;
namespace weave = fatomic::weave;

namespace {

detect::Campaign traced_campaign(std::function<void()> program,
                                 unsigned jobs) {
  fatomic::Config config;
  config.jobs(jobs).tracing(true);
  return detect::Experiment(std::move(program), config).run();
}

/// `program`, except that each worker's first injector run waits (at most
/// five seconds) until a second worker has entered a run, so a worker that
/// starts first cannot drain every threshold alone.  The Count baseline
/// never waits.
std::function<void()> two_workers_enter(std::function<void()> program) {
  struct Gate {
    std::mutex mu;
    std::condition_variable entered_cv;
    std::set<const weave::Runtime*> entered;
  };
  auto gate = std::make_shared<Gate>();
  return [gate, program = std::move(program)] {
    const weave::Runtime& rt = weave::Runtime::instance();
    if (rt.mode() == weave::Mode::Inject) {
      std::unique_lock<std::mutex> lock(gate->mu);
      if (gate->entered.insert(&rt).second) {
        gate->entered_cv.notify_all();
        gate->entered_cv.wait_for(lock, std::chrono::seconds(5),
                                  [&] { return gate->entered.size() > 1; });
      }
    }
    program();
  };
}

class TraceTest : public ::testing::Test {
 protected:
  void TearDown() override {
    auto& rt = weave::Runtime::instance();
    rt.set_mode(weave::Mode::Direct);
    rt.set_wrap_predicate(nullptr);
    rt.trace.disable();
  }
};

}  // namespace

TEST_F(TraceTest, DisabledByDefault) {
  detect::Campaign c = detect::Experiment(synthetic::workload).run();
  EXPECT_FALSE(c.trace.enabled);
  EXPECT_TRUE(c.trace.events.empty());
  // The trace section is absent from untraced campaign JSON, keeping the
  // output byte-identical to the pre-tracing format.
  EXPECT_EQ(report::campaign_json(c).find("\"trace\""), std::string::npos);
}

TEST_F(TraceTest, TracedCampaignRecordsEveryRun) {
  detect::Campaign c = traced_campaign(synthetic::workload, 1);
  ASSERT_TRUE(c.trace.enabled);
  ASSERT_FALSE(c.trace.events.empty());
  // One Run span per kept record, in threshold order, plus at most one
  // trailing span for the terminal exhaustion probe (whose record is
  // dropped, but whose execution is part of the campaign).
  std::vector<std::uint64_t> run_thresholds;
  for (const trace::Event& e : c.trace.events)
    if (e.kind == trace::EventKind::Run)
      run_thresholds.push_back(e.injection_point);
  ASSERT_GE(run_thresholds.size(), c.runs.size());
  ASSERT_LE(run_thresholds.size(), c.runs.size() + 1);
  for (std::size_t i = 0; i < c.runs.size(); ++i)
    EXPECT_EQ(run_thresholds[i], c.runs[i].injection_point) << "run " << i;
  // Exactly one Campaign span and one Baseline span.
  std::size_t campaigns = 0, baselines = 0, injections = 0;
  for (const trace::Event& e : c.trace.events) {
    campaigns += e.kind == trace::EventKind::Campaign;
    baselines += e.kind == trace::EventKind::Baseline;
    injections += e.kind == trace::EventKind::Injection;
  }
  EXPECT_EQ(campaigns, 1u);
  EXPECT_EQ(baselines, 1u);
  EXPECT_EQ(injections, c.injections());
  EXPECT_GT(c.trace.duration_ns(), 0u);
}

// The tentpole determinism guarantee: the merged event stream is identical
// modulo timestamps for jobs=1 and jobs=8 on the collections family.
TEST_F(TraceTest, CanonicalStreamIdenticalAcrossJobsOnCollections) {
  const auto& app = subjects::apps::app("LinkedList");
  detect::Campaign seq = traced_campaign(app.program, 1);
  detect::Campaign par = traced_campaign(app.program, 8);
  ASSERT_FALSE(seq.trace.events.empty());
  EXPECT_EQ(seq.trace.events.size(), par.trace.events.size());
  EXPECT_EQ(trace::canonical_stream(seq.trace),
            trace::canonical_stream(par.trace));
}

TEST_F(TraceTest, CanonicalStreamIdenticalAcrossJobsOnSynthetic) {
  detect::Campaign seq = traced_campaign(synthetic::workload, 1);
  detect::Campaign par = traced_campaign(synthetic::workload, 4);
  EXPECT_EQ(trace::canonical_stream(seq.trace),
            trace::canonical_stream(par.trace));
}

TEST_F(TraceTest, CanonicalStreamStableAcrossRepeatedRuns) {
  detect::Campaign a = traced_campaign(synthetic::workload, 1);
  detect::Campaign b = traced_campaign(synthetic::workload, 1);
  // Timestamps differ between executions; the canonical form must not.
  EXPECT_EQ(trace::canonical_stream(a.trace), trace::canonical_stream(b.trace));
}

TEST_F(TraceTest, WorkerStatsSumToCampaignStats) {
  detect::Campaign c = traced_campaign(
      two_workers_enter(subjects::apps::app("LinkedList").program), 4);
  ASSERT_FALSE(c.worker_stats.empty());
  weave::RuntimeStats sum;
  std::uint64_t runs = 0;
  for (const detect::WorkerStats& w : c.worker_stats) {
    sum += w.stats;
    runs += w.runs;
  }
  for (const weave::StatField& f : weave::kStatFields)
    EXPECT_EQ(sum.*f.member, c.stats.*f.member) << f.name;
  EXPECT_GE(runs, c.runs.size());
  // With jobs=4 more than one worker must actually have contributed.
  EXPECT_GT(c.worker_stats.size(), 1u);
}

TEST_F(TraceTest, SequentialWorkerStatsAttributeToDriver) {
  detect::Campaign c = traced_campaign(synthetic::workload, 1);
  ASSERT_EQ(c.worker_stats.size(), 1u);
  EXPECT_EQ(c.worker_stats[0].worker, 0u);
  EXPECT_EQ(c.worker_stats[0].stats.comparisons, c.stats.comparisons);
}

// ---- Chrome trace_event export ---------------------------------------------

TEST_F(TraceTest, ChromeTraceIsSchemaValidAndRoundTrips) {
  detect::Campaign c = traced_campaign(synthetic::workload, 1);
  const std::string doc = trace::chrome_trace_json(c.trace, "synthetic");

  const report::JsonValue root = report::json_parse(doc);
  ASSERT_TRUE(root.is_object());
  const report::JsonValue& events = root.at("traceEvents");
  ASSERT_TRUE(events.is_array());
  ASSERT_FALSE(events.array.empty());
  for (const report::JsonValue& e : events.array) {
    ASSERT_TRUE(e.is_object());
    const report::JsonValue& ph = e.at("ph");
    ASSERT_TRUE(ph.is_string());
    EXPECT_TRUE(ph.string == "X" || ph.string == "i" || ph.string == "M")
        << ph.string;
    EXPECT_TRUE(e.at("pid").is_number());
    EXPECT_TRUE(e.at("tid").is_number());
    EXPECT_TRUE(e.at("name").is_string());
    if (ph.string == "X") {
      EXPECT_TRUE(e.at("ts").is_number());
      EXPECT_TRUE(e.at("dur").is_number());
    } else if (ph.string == "i") {
      EXPECT_TRUE(e.at("ts").is_number());
    }
  }
  // Round trip: parse -> dump -> parse yields a byte-identical dump.
  EXPECT_EQ(report::json_parse(root.dump()).dump(), root.dump());
}

// Golden file: a hand-built trace with pinned timestamps must serialize to
// exactly this document (schema lock for external consumers).
TEST_F(TraceTest, ChromeTraceGoldenFile) {
  trace::Trace t;
  t.enabled = true;
  trace::Event run;
  run.kind = trace::EventKind::Run;
  run.worker = 1;
  run.ts_ns = 1500;
  run.dur_ns = 2500;
  run.injection_point = 3;
  run.value = 2;
  t.events.push_back(run);
  trace::Event inj;
  inj.kind = trace::EventKind::Injection;
  inj.worker = 1;
  inj.ts_ns = 2000;
  inj.injection_point = 3;
  inj.value = 3;
  inj.detail = "fatomic::InjectedRuntimeError";
  t.events.push_back(inj);

  const std::string expected =
      "{\"traceEvents\":["
      "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"process_name\","
      "\"args\":{\"name\":\"golden\"}},"
      "{\"ph\":\"M\",\"pid\":0,\"tid\":1,\"name\":\"thread_name\","
      "\"args\":{\"name\":\"worker 1\"}},"
      "{\"ph\":\"X\",\"pid\":0,\"tid\":1,\"ts\":1.500,\"dur\":2.500,"
      "\"name\":\"run\",\"cat\":\"fatomic\","
      "\"args\":{\"injection_point\":3,\"value\":2}},"
      "{\"ph\":\"i\",\"pid\":0,\"tid\":1,\"ts\":2.000,\"s\":\"t\","
      "\"name\":\"injection\",\"cat\":\"fatomic\","
      "\"args\":{\"injection_point\":3,\"value\":3,"
      "\"detail\":\"fatomic::InjectedRuntimeError\"}}"
      "],\"displayTimeUnit\":\"ms\"}";
  EXPECT_EQ(trace::chrome_trace_json(t, "golden"), expected);
  // And the golden document itself round-trips through the parser.
  EXPECT_EQ(report::json_parse(expected).dump(), expected);
}

TEST_F(TraceTest, MultiProcessTraceAssignsOnePidPerApp) {
  detect::Campaign a = traced_campaign(synthetic::workload, 1);
  detect::Campaign b = traced_campaign(synthetic::workload, 1);
  const std::string doc =
      trace::chrome_trace_json({{"first", a.trace}, {"second", b.trace}});
  const report::JsonValue root = report::json_parse(doc);
  std::set<std::int64_t> pids;
  for (const report::JsonValue& e : root.at("traceEvents").array)
    pids.insert(e.at("pid").as_int());
  EXPECT_EQ(pids, (std::set<std::int64_t>{0, 1}));
}

// ---- campaign_json trace section -------------------------------------------

TEST_F(TraceTest, TraceSectionEmbeddedForTracedCampaigns) {
  detect::Campaign c = traced_campaign(synthetic::workload, 2);
  const report::JsonValue root = report::json_parse(report::campaign_json(c));
  const report::JsonValue& section = root.at("trace");
  EXPECT_TRUE(section.at("enabled").boolean);
  EXPECT_EQ(section.at("events").as_int(),
            static_cast<std::int64_t>(c.trace.events.size()));
  const report::JsonValue& workers = section.at("workers");
  ASSERT_TRUE(workers.is_array());
  // Every counter of the campaign's stats block appears per worker, and the
  // workers' values sum to the campaign's.
  for (const weave::StatField& f : weave::kStatFields) {
    if (f.block != weave::StatBlock::stats) continue;
    std::int64_t sum = 0;
    for (const report::JsonValue& w : workers.array) {
      ASSERT_NE(w.at("stats").find(f.json_key), nullptr) << f.json_key;
      sum += w.at("stats").at(f.json_key).as_int();
    }
    EXPECT_EQ(sum, static_cast<std::int64_t>(c.stats.*f.member)) << f.json_key;
  }
  EXPECT_TRUE(section.at("metrics").is_object());
}

TEST_F(TraceTest, TraceSummaryMentionsEveryKind) {
  detect::Campaign c = traced_campaign(synthetic::workload, 1);
  const std::string summary = trace::trace_summary(c.trace);
  EXPECT_NE(summary.find("run"), std::string::npos);
  EXPECT_NE(summary.find("snapshot"), std::string::npos);
  EXPECT_NE(summary.find("injection"), std::string::npos);
  EXPECT_NE(summary.find("campaign"), std::string::npos);
}

// ---- runtime hooks ----------------------------------------------------------

TEST_F(TraceTest, MaskedScopeRecordsEnterAndExit) {
  auto& rt = weave::Runtime::instance();
  rt.trace.enable(0);
  const std::size_t before = rt.trace.size();
  {
    fatomic::mask::MaskedScope scope(
        [](const weave::MethodInfo&) { return false; });
  }
  std::vector<trace::Event> events = rt.trace.take(before);
  rt.trace.disable();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, trace::EventKind::MaskScope);
  EXPECT_EQ(events[0].value, 1u);
  EXPECT_EQ(events[1].kind, trace::EventKind::MaskScope);
  EXPECT_EQ(events[1].value, 0u);
}

TEST_F(TraceTest, MaskVerificationTraceCoversCheckpoints) {
  auto cls = detect::classify(detect::Experiment(synthetic::workload).run());
  fatomic::Config config;
  config.tracing(true).mask(fatomic::mask::wrap_pure(cls));
  const auto verified =
      fatomic::mask::verify_masked_full(synthetic::workload, config);
  ASSERT_TRUE(verified.campaign.trace.enabled);
  // Every full checkpoint is one Snapshot span.
  std::size_t snapshots = 0, rollbacks = 0;
  for (const trace::Event& e : verified.campaign.trace.events) {
    snapshots += e.kind == trace::EventKind::Snapshot;
    rollbacks += e.kind == trace::EventKind::Rollback;
  }
  EXPECT_EQ(snapshots, verified.campaign.stats.snapshots_taken);
  EXPECT_EQ(rollbacks, verified.campaign.stats.rollbacks);
}

TEST_F(TraceTest, RollbacksAreSpansWithADuration) {
  auto cls = detect::classify(detect::Experiment(synthetic::workload).run());
  fatomic::Config config;
  config.tracing(true).mask(fatomic::mask::wrap_pure(cls));
  const auto verified =
      fatomic::mask::verify_masked_full(synthetic::workload, config);
  std::size_t rollbacks = 0;
  for (const trace::Event& e : verified.campaign.trace.events) {
    if (e.kind != trace::EventKind::Rollback) continue;
    ++rollbacks;
    EXPECT_GT(e.dur_ns, 0u) << "a rollback span times its restore";
  }
  ASSERT_GT(rollbacks, 0u);
  // The Chrome export shows every rollback as a complete ("X") event.
  const report::JsonValue doc = report::json_parse(
      trace::chrome_trace_json(verified.campaign.trace, "masked"));
  std::size_t exported = 0;
  for (const report::JsonValue& e : doc.at("traceEvents").array) {
    if (e.at("name").string != "rollback") continue;
    ++exported;
    EXPECT_EQ(e.at("ph").string, "X");
  }
  EXPECT_EQ(exported, rollbacks);
}

// ---- metrics registry (independent of tracing) ------------------------------

TEST(Metrics, HistogramNearestRankPercentiles) {
  trace::Histogram h;
  for (std::uint64_t v = 1; v <= 100; ++v) h.observe(v);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_EQ(h.percentile(50), 50u);
  EXPECT_EQ(h.percentile(90), 90u);
  EXPECT_EQ(h.percentile(99), 99u);
  EXPECT_EQ(h.percentile(100), 100u);
  EXPECT_DOUBLE_EQ(h.mean(), 50.5);
}

TEST(Metrics, HistogramMergeConcatenates) {
  trace::Histogram a, b;
  a.observe(1);
  a.observe(3);
  b.observe(2);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.sum(), 6u);
  EXPECT_EQ(a.percentile(50), 2u);
}

TEST(Metrics, RegistryCountersAndJson) {
  trace::MetricsRegistry reg;
  reg.add("a");
  reg.add("a", 2);
  reg.add("b", 5);
  reg.histogram("h").observe(7);
  EXPECT_EQ(reg.counter("a"), 3u);
  EXPECT_EQ(reg.counter("absent"), 0u);
  const report::JsonValue root = report::json_parse(reg.to_json());
  EXPECT_EQ(root.at("counters").at("a").as_int(), 3);
  EXPECT_EQ(root.at("counters").at("b").as_int(), 5);
  EXPECT_EQ(root.at("histograms").at("h").at("count").as_int(), 1);
  EXPECT_EQ(root.at("histograms").at("h").at("p50").as_int(), 7);
}

TEST(Metrics, RegistryMergeAddsCountersAndHistograms) {
  trace::MetricsRegistry a, b;
  a.add("x", 1);
  b.add("x", 2);
  b.add("y", 4);
  a.histogram("h").observe(1);
  b.histogram("h").observe(3);
  a.merge(b);
  EXPECT_EQ(a.counter("x"), 3u);
  EXPECT_EQ(a.counter("y"), 4u);
  EXPECT_EQ(a.histogram("h").count(), 2u);
}

TEST(Metrics, CampaignMetricsSubsumeRuntimeStats) {
  fatomic::Config config;
  config.tracing(true);
  detect::Campaign c =
      detect::Experiment(synthetic::workload, config).run();
  fatomic::weave::Runtime::instance().set_mode(fatomic::weave::Mode::Direct);
  const trace::MetricsRegistry reg = trace::campaign_metrics(c);
  EXPECT_EQ(reg.counter("stats.comparisons"), c.stats.comparisons);
  EXPECT_EQ(reg.counter("stats.snapshots_taken"), c.stats.snapshots_taken);
  EXPECT_EQ(reg.counter("campaign.runs"), c.runs.size());
  EXPECT_EQ(reg.counter("campaign.injections"), c.injections());
  // Per-exception-type injection counts partition the total.
  std::uint64_t by_type = 0;
  for (const auto& [name, v] : reg.counters())
    if (name.rfind("injections.", 0) == 0) by_type += v;
  EXPECT_EQ(by_type, c.injections());
}

// ---- JSON parser edge cases -------------------------------------------------

TEST(JsonParse, ParsesScalarsArraysObjects) {
  const report::JsonValue v = report::json_parse(
      R"({"s":"a\"b","n":-1.5e2,"t":true,"f":false,"z":null,"a":[1,2]})");
  EXPECT_EQ(v.at("s").string, "a\"b");
  EXPECT_DOUBLE_EQ(v.at("n").number, -150.0);
  EXPECT_TRUE(v.at("t").boolean);
  EXPECT_FALSE(v.at("f").boolean);
  EXPECT_TRUE(v.at("z").is_null());
  ASSERT_EQ(v.at("a").array.size(), 2u);
  EXPECT_EQ(v.at("a").array[1].as_int(), 2);
}

TEST(JsonParse, RejectsMalformedInput) {
  EXPECT_THROW(report::json_parse("{"), std::runtime_error);
  EXPECT_THROW(report::json_parse("{}extra"), std::runtime_error);
  EXPECT_THROW(report::json_parse("{'single':1}"), std::runtime_error);
  EXPECT_THROW(report::json_parse("[1,]"), std::runtime_error);
}

TEST(JsonParse, RoundTripsCampaignJson) {
  detect::Campaign c = detect::Experiment(synthetic::workload).run();
  fatomic::weave::Runtime::instance().set_mode(fatomic::weave::Mode::Direct);
  const std::string doc = report::campaign_json(c);
  const report::JsonValue root = report::json_parse(doc);
  EXPECT_EQ(root.dump(), doc);
  EXPECT_EQ(root.at("runs").as_int(), static_cast<std::int64_t>(c.runs.size()));
}
