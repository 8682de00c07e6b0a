// Parallel injection campaigns (Config::jobs): a campaign sharded
// across worker threads with isolated thread-local runtimes must reproduce
// the sequential campaign bit for bit — runs, marks, classification, report
// JSON and aggregated stats — on real subjects.  Also covers the
// campaign-loop regressions fixed alongside: the terminal-run record of a
// genuinely escaping program, a campaign that leaves the calling runtime as
// it found it, and restoration of the runtime configuration around masked
// scopes.
#include "fatomic/detect/experiment.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>

#include "fatomic/detect/classify.hpp"
#include "fatomic/mask/masker.hpp"
#include "fatomic/report/json.hpp"
#include "fatomic/trace/trace.hpp"
#include "subjects/apps/apps.hpp"
#include "testing/synthetic.hpp"

namespace detect = fatomic::detect;
namespace report = fatomic::report;
namespace weave = fatomic::weave;

namespace {

void expect_same_calls(const weave::CallTable& a, const weave::CallTable& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t k = 0; k < a.size(); ++k) {
    EXPECT_EQ(a[k].method, b[k].method) << "call " << k;
    EXPECT_EQ(a[k].parent, b[k].parent) << "call " << k;
    EXPECT_EQ(a[k].bound, b[k].bound) << "call " << k;
  }
}

void expect_same_campaign(const detect::Campaign& seq,
                          const detect::Campaign& par) {
  ASSERT_EQ(seq.runs.size(), par.runs.size());
  for (std::size_t i = 0; i < seq.runs.size(); ++i) {
    const detect::RunRecord& a = seq.runs[i];
    const detect::RunRecord& b = par.runs[i];
    EXPECT_EQ(a.injection_point, b.injection_point);
    EXPECT_EQ(a.injected_method, b.injected_method) << "run " << i;
    EXPECT_EQ(a.injected_exception, b.injected_exception);
    EXPECT_EQ(a.escaped, b.escaped);
    EXPECT_EQ(a.escape_what, b.escape_what);
    ASSERT_EQ(a.marks.size(), b.marks.size()) << "run " << i;
    for (std::size_t j = 0; j < a.marks.size(); ++j) {
      EXPECT_EQ(a.marks[j].method, b.marks[j].method);
      EXPECT_EQ(a.marks[j].atomic, b.marks[j].atomic);
      EXPECT_EQ(a.marks[j].depth, b.marks[j].depth);
      EXPECT_EQ(a.marks[j].detail, b.marks[j].detail);
    }
  }
  expect_same_calls(seq.calls, par.calls);
  EXPECT_EQ(seq.stats.snapshots_taken, par.stats.snapshots_taken);
  EXPECT_EQ(seq.stats.comparisons, par.stats.comparisons);
  EXPECT_EQ(seq.stats.rollbacks, par.stats.rollbacks);
  EXPECT_EQ(seq.stats.wrapped_calls, par.stats.wrapped_calls);
}

void expect_parallel_matches_sequential(const std::string& app_name) {
  const auto& app = subjects::apps::app(app_name);

  detect::Campaign seq = detect::Experiment(app.program).run();

  fatomic::Config par_cfg;
  par_cfg.jobs(4);
  detect::Campaign par = detect::Experiment(app.program, par_cfg).run();

  expect_same_campaign(seq, par);
  EXPECT_EQ(report::campaign_json(seq), report::campaign_json(par));
  EXPECT_EQ(report::classification_json(detect::classify(seq)),
            report::classification_json(detect::classify(par)));
}

bool outer_wrap(const weave::MethodInfo& mi) {
  return mi.method_name() == "set";
}

class ParallelDetectTest : public ::testing::Test {
 protected:
  void TearDown() override {
    auto& rt = weave::Runtime::instance();
    rt.set_mode(weave::Mode::Direct);
    rt.set_wrap_predicate(nullptr);
  }
};

}  // namespace

TEST_F(ParallelDetectTest, CollectionsSubjectIsDeterministic) {
  expect_parallel_matches_sequential("LinkedList");
}

TEST_F(ParallelDetectTest, XmlSubjectIsDeterministic) {
  expect_parallel_matches_sequential("xml2xml1");
}

TEST_F(ParallelDetectTest, SyntheticWorkloadIsDeterministic) {
  detect::Campaign seq = detect::Experiment(synthetic::workload).run();
  fatomic::Config par_cfg;
  par_cfg.jobs(8);
  detect::Campaign par = detect::Experiment(synthetic::workload, par_cfg).run();
  expect_same_campaign(seq, par);
}

TEST_F(ParallelDetectTest, JobsZeroMeansHardwareConcurrency) {
  fatomic::Config cfg;
  cfg.jobs(0);
  detect::Campaign par = detect::Experiment(synthetic::workload, cfg).run();
  detect::Campaign seq = detect::Experiment(synthetic::workload).run();
  expect_same_campaign(seq, par);
}

TEST_F(ParallelDetectTest, HugeJobCountIsCappedAtTheRunsToClaim) {
  // At most one worker per baseline threshold plus the terminal run can
  // claim a run; the pool must not try to spawn four billion threads.
  detect::Campaign seq = detect::Experiment(synthetic::workload).run();
  fatomic::Config cfg;
  cfg.jobs(std::numeric_limits<unsigned>::max());
  detect::Campaign par = detect::Experiment(synthetic::workload, cfg).run();
  expect_same_campaign(seq, par);
}

TEST_F(ParallelDetectTest, MaskedParallelVerificationMatchesSequential) {
  const auto& app = subjects::apps::app("LinkedList");
  auto cls = detect::classify(detect::Experiment(app.program).run());
  fatomic::Config cfg;
  cfg.mask(fatomic::mask::wrap_pure(cls));
  auto seq = fatomic::mask::verify_masked_full(app.program, cfg);
  auto par = fatomic::mask::verify_masked_full(app.program, cfg.jobs(4));
  EXPECT_EQ(report::classification_json(seq.classification),
            report::classification_json(par.classification));
  EXPECT_TRUE(par.classification.nonatomic_names().empty());
}

TEST_F(ParallelDetectTest, MaxRunsCutoffAppliesInParallel) {
  fatomic::Config cfg;
  cfg.max_runs(7);
  detect::Campaign seq = detect::Experiment(synthetic::workload, cfg).run();
  detect::Campaign par =
      detect::Experiment(synthetic::workload, cfg.jobs(4)).run();
  EXPECT_EQ(seq.runs.size(), 7u);
  expect_same_campaign(seq, par);
}

TEST_F(ParallelDetectTest, MaxRunsAtTheLimitMatchesDefault) {
  // max_runs at UINT64_MAX bounds nothing: the campaign must equal the
  // default one, its cutoff not wrapped to zero, pruned or not, at any job
  // count.
  const auto& app = subjects::apps::app("LinkedList");
  std::set<std::string> atomic;
  for (const auto& m : detect::classify(detect::Experiment(app.program).run())
                           .methods)
    if (m.cls == detect::MethodClass::Atomic)
      atomic.insert(m.method->qualified_name());
  ASSERT_FALSE(atomic.empty());
  for (const bool pruned : {false, true}) {
    for (const unsigned jobs : {1u, 4u}) {
      SCOPED_TRACE("jobs " + std::to_string(jobs) +
                   (pruned ? ", pruned" : ""));
      fatomic::Config cfg;
      cfg.jobs(jobs);
      if (pruned) cfg.prune_atomic(atomic);
      const detect::Campaign expected =
          detect::Experiment(app.program, cfg).run();
      cfg.max_runs(std::numeric_limits<std::uint64_t>::max());
      const detect::Campaign limit = detect::Experiment(app.program, cfg).run();
      ASSERT_FALSE(limit.runs.empty());
      expect_same_campaign(expected, limit);
      EXPECT_EQ(expected.pruned_runs, limit.pruned_runs);
      if (pruned) {
        EXPECT_GT(limit.pruned_runs, 0u);
      }
    }
  }
}

namespace {

/// A workload that, beyond the instrumented calls, always escapes an
/// exception of its own — the campaign's terminal (uninjected, exhausted)
/// run must keep its record instead of silently dropping the escape.
void escaping_workload() {
  synthetic::Account a;
  a.set(10);
  a.atomic_update(5);
  throw std::runtime_error("genuine escape");
}

}  // namespace

TEST_F(ParallelDetectTest, TerminalEscapedRunIsRecorded) {
  detect::Campaign c = detect::Experiment(escaping_workload).run();
  ASSERT_FALSE(c.runs.empty());
  const detect::RunRecord& last = c.runs.back();
  EXPECT_EQ(last.injected_method, nullptr)
      << "terminal run must be uninjected";
  EXPECT_TRUE(last.escaped);
  EXPECT_EQ(last.escape_what, "genuine escape");
  // Every non-terminal run injected; only the terminal record is uninjected.
  for (std::size_t i = 0; i + 1 < c.runs.size(); ++i)
    EXPECT_NE(c.runs[i].injected_method, nullptr) << "run " << i;
}

TEST_F(ParallelDetectTest, TerminalEscapedRunIsRecordedInParallel) {
  fatomic::Config cfg;
  cfg.jobs(4);
  detect::Campaign par = detect::Experiment(escaping_workload, cfg).run();
  detect::Campaign seq = detect::Experiment(escaping_workload).run();
  expect_same_campaign(seq, par);
  EXPECT_TRUE(par.runs.back().escaped);
}

TEST_F(ParallelDetectTest, QuietTerminalRunIsStillDropped) {
  detect::Campaign c = detect::Experiment(synthetic::workload).run();
  for (const detect::RunRecord& run : c.runs)
    EXPECT_NE(run.injected_method, nullptr);
}

TEST_F(ParallelDetectTest, MaskedExperimentRestoresOuterWrapPredicate) {
  auto& rt = weave::Runtime::instance();
  // An outer predicate, as installed by a surrounding MaskedScope.
  rt.set_wrap_predicate([](const weave::MethodInfo& mi) {
    return mi.method_name() == "set";
  });

  fatomic::Config cfg;
  cfg.mask([](const weave::MethodInfo&) { return true; });
  detect::Experiment(synthetic::workload, cfg).run();

  const auto* set_mi =
      weave::MethodRegistry::instance().find("synthetic::Account::set");
  const auto* helper_mi =
      weave::MethodRegistry::instance().find("synthetic::Account::helper");
  ASSERT_NE(set_mi, nullptr);
  ASSERT_NE(helper_mi, nullptr);
  EXPECT_TRUE(rt.should_wrap(*set_mi))
      << "outer predicate must survive the masked campaign";
  EXPECT_FALSE(rt.should_wrap(*helper_mi));
}

TEST_F(ParallelDetectTest, NestedMaskedScopesRestoreInOrder) {
  auto& rt = weave::Runtime::instance();
  {
    synthetic::Account a;
    a.set(1);  // force MethodInfo registration (lazy, on first call)
  }
  const auto* set_mi =
      weave::MethodRegistry::instance().find("synthetic::Account::set");
  ASSERT_NE(set_mi, nullptr);
  {
    fatomic::mask::MaskedScope outer(
        [](const weave::MethodInfo& mi) { return mi.method_name() == "set"; });
    {
      fatomic::mask::MaskedScope inner(
          [](const weave::MethodInfo&) { return false; });
      EXPECT_FALSE(rt.should_wrap(*set_mi));
    }
    EXPECT_TRUE(rt.should_wrap(*set_mi))
        << "inner scope must restore the outer predicate";
  }
  EXPECT_FALSE(rt.should_wrap(*set_mi));
}

TEST_F(ParallelDetectTest, ConfigGuardRestoresEveryValue) {
  auto& rt = weave::Runtime::instance();
  // An outer configuration every value of which differs from what the
  // scopes and the campaign below install.
  const auto plans = std::make_shared<const weave::PlanMap>();
  const auto policies = std::make_shared<const fatomic::recovery::PolicyTable>();
  const auto inner_plans = std::make_shared<const weave::PlanMap>();
  const auto inner_policies =
      std::make_shared<const fatomic::recovery::PolicyTable>();
  rt.set_mode(weave::Mode::Count);
  rt.set_wrap_predicate(outer_wrap);
  rt.set_checkpoint_plans(plans);
  rt.set_recovery_policies(policies);
  rt.validate_checkpoints = true;
  rt.record_diffs = false;
  rt.provenance = true;
  rt.fault_period = 1'000'000'007;  // never reached: no fault fires
  rt.trace.enable(12345);
  rt.trace.set_worker(7);

  for (const unsigned jobs : {1u, 4u}) {
    {
      fatomic::mask::MaskedScope outer(
          [](const weave::MethodInfo&) { return true; }, nullptr, false);
      fatomic::mask::MaskedScope inner(
          [](const weave::MethodInfo&) { return false; }, inner_plans, false,
          inner_policies);
      fatomic::Config cfg;
      cfg.mask([](const weave::MethodInfo&) { return true; })
          .tracing(true)
          .record_diffs(true)
          .jobs(jobs);
      const detect::Campaign c =
          detect::Experiment(synthetic::workload, cfg).run();
      EXPECT_GT(c.stats.wrapped_calls, 0u);
      EXPECT_GT(c.stats.rollbacks, 0u);
      // The inner scope's configuration is back after the campaign.
      EXPECT_EQ(rt.mode(), weave::Mode::Mask);
      const weave::MethodInfo* set_mi =
          weave::MethodRegistry::instance().find("synthetic::Account::set");
      ASSERT_NE(set_mi, nullptr);
      EXPECT_FALSE(rt.should_wrap(*set_mi));
      EXPECT_EQ(rt.checkpoint_plans(), inner_plans);
      EXPECT_EQ(rt.recovery_policies(), inner_policies);
      EXPECT_FALSE(rt.validate_checkpoints);
    }
    EXPECT_EQ(rt.mode(), weave::Mode::Count) << "jobs " << jobs;
    const auto* wrap =
        rt.wrap_predicate().target<bool (*)(const weave::MethodInfo&)>();
    ASSERT_NE(wrap, nullptr) << "jobs " << jobs;
    EXPECT_EQ(*wrap, &outer_wrap);
    EXPECT_EQ(rt.checkpoint_plans(), plans);
    EXPECT_EQ(rt.recovery_policies(), policies);
    EXPECT_TRUE(rt.validate_checkpoints);
    EXPECT_FALSE(rt.record_diffs);
    EXPECT_TRUE(rt.provenance);
    EXPECT_EQ(rt.fault_period, 1'000'000'007u);
    EXPECT_TRUE(rt.trace.enabled());
    EXPECT_EQ(rt.trace.epoch(), 12345u);
    EXPECT_EQ(rt.trace.worker(), 7u);
  }

  const weave::Runtime defaults;
  rt.adopt_config(defaults);
  rt.trace.set_worker(0);
  rt.trace.take(0);
}

// A campaign owns its runtime.  Launched from a caller whose runtime is
// traced, inside a MaskedScope with plans, the validator, policies and
// production faults armed, and holds counters, pool captures, a Count table
// and a pending trace event, a traced campaign leaves every one of them as
// it found it, and none of them reaches the campaign's own trace.
TEST_F(ParallelDetectTest, CampaignLeavesTheCallersRuntimeAsItWas) {
  auto& rt = weave::Runtime::instance();
  {
    // Counters and a pool capture from a masked call, then a Count table.
    fatomic::mask::MaskedScope scope(
        [](const weave::MethodInfo&) { return true; });
    synthetic::Account a;
    a.set(1);
  }
  {
    weave::ScopedMode count(weave::Mode::Count);
    rt.reset_counts();
    synthetic::Account a;
    a.set(2);
    a.atomic_update(3);
  }
  ASSERT_GT(rt.stats.wrapped_calls, 0u);
  ASSERT_GT(rt.arena_pool.captures, 0u);
  ASSERT_FALSE(rt.calls.empty());

  const auto plans = std::make_shared<const weave::PlanMap>();
  const auto policies =
      std::make_shared<const fatomic::recovery::PolicyTable>();
  rt.provenance = true;
  rt.trace.enable(12345);
  rt.trace.set_worker(7);
  for (const unsigned jobs : {1u, 4u}) {
    SCOPED_TRACE("jobs " + std::to_string(jobs));
    rt.trace.take(0);
    fatomic::mask::MaskedScope scope(outer_wrap, plans, /*validate=*/true,
                                     policies);
    rt.fault_period = 1'000'000'007;  // never reached: no fault fires
    ASSERT_EQ(rt.trace.size(), 1u) << "the scope's entry event";

    const weave::RuntimeStats stats = rt.stats;
    const std::uint64_t point = rt.point;
    const weave::CallTable calls = rt.calls;
    const std::uint64_t captures = rt.arena_pool.captures;
    const std::uint64_t fault_counter = rt.fault_counter;

    fatomic::Config cfg;
    cfg.mask([](const weave::MethodInfo&) { return true; })
        .tracing(true)
        .record_diffs(true)
        .jobs(jobs);
    const detect::Campaign c =
        detect::Experiment(synthetic::workload, cfg).run();
    EXPECT_GT(c.stats.wrapped_calls, 0u);
    ASSERT_TRUE(c.trace.enabled);
    EXPECT_FALSE(c.trace.events.empty());
    for (const fatomic::trace::Event& e : c.trace.events)
      EXPECT_NE(e.kind, fatomic::trace::EventKind::MaskScope);

    // Every configuration value.
    EXPECT_EQ(rt.mode(), weave::Mode::Mask);
    const auto* wrap =
        rt.wrap_predicate().target<bool (*)(const weave::MethodInfo&)>();
    ASSERT_NE(wrap, nullptr);
    EXPECT_EQ(*wrap, &outer_wrap);
    EXPECT_EQ(rt.checkpoint_plans(), plans);
    EXPECT_EQ(rt.recovery_policies(), policies);
    EXPECT_TRUE(rt.validate_checkpoints);
    EXPECT_FALSE(rt.record_diffs);
    EXPECT_TRUE(rt.provenance);
    EXPECT_EQ(rt.fault_period, 1'000'000'007u);
    EXPECT_EQ(rt.fault_counter, fault_counter);
    EXPECT_TRUE(rt.trace.enabled());
    EXPECT_EQ(rt.trace.epoch(), 12345u);
    EXPECT_EQ(rt.trace.worker(), 7u);
    // The counters, the Count table and the pool.
    for (const weave::StatField& f : weave::kStatFields)
      EXPECT_EQ(rt.stats.*f.member, stats.*f.member) << f.name;
    EXPECT_EQ(rt.point, point);
    expect_same_calls(rt.calls, calls);
    EXPECT_EQ(rt.arena_pool.captures, captures);
    // The pending event.
    const std::vector<fatomic::trace::Event> pending = rt.trace.take(0);
    EXPECT_EQ(pending.size(), 1u);
    for (const fatomic::trace::Event& e : pending) {
      EXPECT_EQ(e.kind, fatomic::trace::EventKind::MaskScope);
      EXPECT_EQ(e.value, 1u);
      EXPECT_EQ(e.worker, 7u);
    }
  }

  const weave::Runtime defaults;
  rt.adopt_config(defaults);
  rt.trace.set_worker(0);
  rt.trace.take(0);
  rt.reset_counts();
  rt.stats = {};
}
