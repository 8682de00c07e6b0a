// Observer-set capture (DESIGN.md §15): an injection wrapper takes its
// before-snapshot, and a nested atomicity wrapper its checkpoint, only when
// its call can observe an exception.  The witness is the canonical mark
// stream of every subject family, frozen from the eager wrapper under
// tests/golden/marks_*.txt: campaigns must reproduce it at any jobs value
// without re-running a single threshold, and with record_diffs on they must
// name the differences tests/golden/diffs.txt records; the views derived from
// the Count baseline must match tests/golden/baseline.txt.  The remaining tests
// pin the Count baseline's per-call table, the safety fallback for programs
// that stray from the baseline (across a skipped checkpoint too), masked
// runs that leave it, the capture counts of the synthetic workload, and the
// eager wrapper outside campaigns.  The witness also runs under a hostile
// ambient configuration — a MaskedScope wrapping every method with plans,
// the validator, a policy table and production faults armed — which a
// campaign, running exactly its Config, must not see.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "fatomic/analyze/static_report.hpp"
#include "fatomic/detect/classify.hpp"
#include "fatomic/detect/experiment.hpp"
#include "fatomic/mask/masker.hpp"
#include "fatomic/recovery/derive.hpp"
#include "fatomic/weave/macros.hpp"
#include "testing/mark_stream.hpp"

namespace detect = fatomic::detect;
namespace mask = fatomic::mask;
namespace weave = fatomic::weave;

namespace elision_subject {

class Oops : public std::runtime_error {
 public:
  Oops() : std::runtime_error("oops") {}
};

class Overdraft : public std::runtime_error {
 public:
  Overdraft() : std::runtime_error("overdraft") {}
};

/// Calls `risky` only under the injector, never in the Count baseline: the
/// stand-in for a program that is not deterministic across runs.
class Box {
 public:
  Box() { FAT_CTOR_ENTRY(); }

  void outer() {
    FAT_INVOKE(outer, [&] {
      value_ = 1;
      try {
        middle();
      } catch (const Oops&) {
      }
      helper();
    });
  }
  void middle() {
    FAT_INVOKE(middle, [&] {
      if (weave::Runtime::instance().mode() != weave::Mode::Count) risky();
    });
  }
  void risky() {
    FAT_INVOKE(risky, [&] {
      ++value_;
      throw Oops();
    });
  }
  int helper() {
    return FAT_INVOKE(helper, [&] { return value_; });
  }

 private:
  FAT_REFLECT_FRIEND(Box);
  FAT_CTOR_INFO(elision_subject::Box);
  FAT_METHOD_INFO(elision_subject::Box, outer);
  FAT_METHOD_INFO(elision_subject::Box, middle);
  FAT_METHOD_INFO(elision_subject::Box, risky);
  FAT_METHOD_INFO(elision_subject::Box, helper);

  int value_ = 0;
};

void box_program() {
  Box box;
  box.outer();
}

/// `deposit` throws after mutating; `settle` calls `bonus` only when the
/// failed deposit was rolled back, so masking changes the calls after it.
class Ledger {
 public:
  Ledger() { FAT_CTOR_ENTRY(); }

  void deposit(int v) {
    FAT_INVOKE(deposit, [&] {
      balance_ += v;
      if (balance_ > 10) throw Overdraft();
    });
  }
  void settle() {
    FAT_INVOKE(settle, [&] {
      if (balance_ <= 10) {
        bonus();
        bonus();
      }
    });
  }
  void bonus() {
    FAT_INVOKE(bonus, [&] { ++balance_; });
  }

 private:
  FAT_REFLECT_FRIEND(Ledger);
  FAT_CTOR_INFO(elision_subject::Ledger);
  FAT_METHOD_INFO(elision_subject::Ledger, deposit);
  FAT_METHOD_INFO(elision_subject::Ledger, settle);
  FAT_METHOD_INFO(elision_subject::Ledger, bonus);

  int balance_ = 0;
};

void ledger_program() {
  Ledger ledger;
  ledger.deposit(5);
  try {
    ledger.deposit(10);
  } catch (const Overdraft&) {
  }
  ledger.settle();
}

}  // namespace elision_subject

FAT_REFLECT(elision_subject::Box, FAT_FIELD(elision_subject::Box, value_));
FAT_REFLECT(elision_subject::Ledger,
            FAT_FIELD(elision_subject::Ledger, balance_));

namespace {

using elision_subject::box_program;
using elision_subject::ledger_program;

void reset_runtime() {
  auto& rt = weave::Runtime::instance();
  rt.set_mode(weave::Mode::Direct);
  rt.set_wrap_predicate(nullptr);
}

class CaptureElision : public ::testing::Test {
 protected:
  void TearDown() override { reset_runtime(); }
};

const fatomic::analyze::StaticReport& static_report() {
  static const auto report = fatomic::analyze::analyze_sources(
      std::string(FATOMIC_SOURCE_DIR) + "/subjects");
  return report;
}

const std::shared_ptr<const weave::PlanMap>& static_plans() {
  static const auto plans = mask::make_plans(static_report());
  return plans;
}

/// The most hostile configuration a campaign can be launched from: a
/// MaskedScope that wraps every method, with the static plans, the
/// validator and the derived policy table, and a production fault on every
/// third wrapped attempt.  A campaign runs exactly its Config, so none of
/// it may reach the campaigns run inside, and all of it is back after them.
/// The scope's guard gives fault_period back with the rest.
class HostileAmbient {
 public:
  HostileAmbient()
      : policies_(
            fatomic::recovery::derive_policy_table(static_report(), nullptr)
                .table),
        scope_([](const weave::MethodInfo&) { return true; }, static_plans(),
               /*validate=*/true, policies_) {
    weave::Runtime::instance().fault_period = 3;
  }
  HostileAmbient(const HostileAmbient&) = delete;
  HostileAmbient& operator=(const HostileAmbient&) = delete;

  void expect_intact() const {
    const weave::Runtime& rt = weave::Runtime::instance();
    EXPECT_EQ(rt.mode(), weave::Mode::Mask);
    ASSERT_TRUE(static_cast<bool>(rt.wrap_predicate()));
    EXPECT_EQ(rt.checkpoint_plans(), static_plans());
    EXPECT_EQ(rt.recovery_policies(), policies_);
    EXPECT_TRUE(rt.validate_checkpoints);
    EXPECT_EQ(rt.fault_period, 3u);
    EXPECT_EQ(rt.fault_counter, fault_counter_)
        << "no production fault may fire inside a campaign";
  }

 private:
  std::shared_ptr<const fatomic::recovery::PolicyTable> policies_;
  mask::MaskedScope scope_;
  std::uint64_t fault_counter_ = weave::Runtime::instance().fault_counter;
};

std::string method_of(const weave::BaselineCall& call) {
  return call.method->qualified_name();
}

// ---- the witness ------------------------------------------------------------

class MarkStreamWitness : public ::testing::TestWithParam<std::string> {
 protected:
  void TearDown() override { reset_runtime(); }

  static const std::function<void()>& program() {
    static const auto all = mark_stream::families();
    for (const auto& [name, fn] : all)
      if (name == GetParam()) return fn;
    throw std::out_of_range("unknown family " + GetParam());
  }

  void expect_witness(unsigned jobs) {
    const std::string expected = mark_stream::golden(GetParam());
    ASSERT_FALSE(expected.empty())
        << "missing " << mark_stream::golden_path(GetParam());
    fatomic::Config cfg;
    cfg.jobs(jobs);
    const detect::Campaign campaign = detect::Experiment(program(), cfg).run();
    EXPECT_EQ(mark_stream::render(campaign), expected);
    EXPECT_EQ(campaign.stats.capture_reruns, 0u);
    // Only calls an exception can reach capture: every compare had its
    // before-snapshot, and few snapshots go unread.
    EXPECT_LE(campaign.stats.comparisons, campaign.stats.snapshots_taken);
    EXPECT_LE(campaign.stats.snapshots_taken, 2 * campaign.stats.comparisons);
  }

  void expect_mask_verify(unsigned jobs) {
    const detect::Classification cls =
        detect::classify(detect::Experiment(program()).run());
    fatomic::Config cfg;
    cfg.mask(mask::wrap_pure(cls))
        .checkpoint_plans(static_plans())
        .validate_checkpoints(true)
        .jobs(jobs);
    const mask::MaskVerification verified =
        mask::verify_masked_full(program(), cfg);
    const detect::Campaign& campaign = verified.campaign;
    const std::string line = mark_stream::mask_verify_line(GetParam(), campaign);
    const std::string expected = mark_stream::golden_mask_verify(GetParam());
    ASSERT_FALSE(expected.empty())
        << "no line for " << GetParam() << " in "
        << mark_stream::mask_verify_path() << "; this build renders\n"
        << line;
    EXPECT_EQ(line, expected) << "rendered stream:\n"
                              << mark_stream::render(campaign);
    EXPECT_EQ(campaign.stats.capture_reruns, 0u);
    // No policy table is installed, so every rollback is the constant
    // rollback policy's.
    EXPECT_EQ(campaign.stats.policy_rollbacks, campaign.stats.rollbacks);
    EXPECT_TRUE(verified.classification.nonatomic_names().empty());
  }

  void expect_diffs() {
    fatomic::Config cfg;
    cfg.record_diffs(true).jobs(1);
    const detect::Campaign campaign = detect::Experiment(program(), cfg).run();
    const std::string line = mark_stream::diffs_line(GetParam(), campaign);
    const std::string expected =
        mark_stream::golden_line(mark_stream::diffs_path(), GetParam());
    ASSERT_FALSE(expected.empty())
        << "no line for " << GetParam() << " in " << mark_stream::diffs_path()
        << "; this build renders\n"
        << line;
    EXPECT_EQ(line, expected);
    // Naming the differences moves no mark.
    EXPECT_EQ(mark_stream::render(campaign), mark_stream::golden(GetParam()));
  }

  void expect_baseline_views() {
    const detect::Campaign campaign = detect::Experiment(program()).run();
    const std::string line = mark_stream::baseline_line(GetParam(), campaign);
    const std::string expected =
        mark_stream::golden_line(mark_stream::baseline_path(), GetParam());
    ASSERT_FALSE(expected.empty())
        << "no line for " << GetParam() << " in "
        << mark_stream::baseline_path() << "; this build renders\n"
        << line;
    EXPECT_EQ(line, expected);
  }
};

TEST_P(MarkStreamWitness, DetectJobs1) { expect_witness(1); }

TEST_P(MarkStreamWitness, DetectJobs4) { expect_witness(4); }

/// The masked half: injection wrappers around atomicity wrappers that roll
/// back, with write-set plans and the validator installed, reproduce the
/// family's tests/golden/mask_verify.txt line and never re-run a threshold.
TEST_P(MarkStreamWitness, MaskVerifyPlansNoReruns) { expect_mask_verify(1); }

TEST_P(MarkStreamWitness, MaskVerifyJobs4) { expect_mask_verify(4); }

/// What the diff names: every non-atomic mark's detail and footprint
/// reproduce the family's tests/golden/diffs.txt line.
TEST_P(MarkStreamWitness, DiffDetailsAndFootprints) { expect_diffs(); }

/// What the campaign derives from its Count baseline: the Table 1 counts,
/// total calls, injections, per-method call counts and the dynamic call
/// graph reproduce the family's tests/golden/baseline.txt line.
TEST_P(MarkStreamWitness, BaselineViews) { expect_baseline_views(); }

/// Both halves again, launched from the hostile ambient configuration: the
/// streams, counters and hashes must not move.  The detection half pins
/// that the ambient predicate never masks an unmasked campaign.
TEST_P(MarkStreamWitness, HostileAmbientDetectJobs4) {
  HostileAmbient ambient;
  expect_witness(4);
  ambient.expect_intact();
}

TEST_P(MarkStreamWitness, HostileAmbientMaskVerifyJobs1) {
  HostileAmbient ambient;
  expect_mask_verify(1);
  ambient.expect_intact();
}

TEST_P(MarkStreamWitness, HostileAmbientMaskVerifyJobs4) {
  HostileAmbient ambient;
  expect_mask_verify(4);
  ambient.expect_intact();
}

std::vector<std::string> family_names() {
  std::vector<std::string> names;
  for (const auto& [name, fn] : mark_stream::families()) names.push_back(name);
  return names;
}

INSTANTIATE_TEST_SUITE_P(Families, MarkStreamWitness,
                         ::testing::ValuesIn(family_names()),
                         [](const auto& info) { return info.param; });

// ---- the Count baseline's per-call table ------------------------------------

TEST_F(CaptureElision, BaselineRecordsParentsAndBounds) {
  auto& rt = weave::Runtime::instance();
  weave::ScopedMode mode(weave::Mode::Count);
  rt.reset_counts();
  box_program();
  // One injection point per call (no declared exceptions): the ctor fires
  // point 1, outer 2, middle 3 and helper 4.
  const weave::CallTable& calls = rt.calls;
  ASSERT_EQ(calls.size(), 4u);
  EXPECT_EQ(method_of(calls[0]), "elision_subject::Box::(ctor)");
  EXPECT_EQ(calls[0].parent, weave::BaselineCall::kTopLevel);
  EXPECT_EQ(calls[0].bound, 1u);
  EXPECT_EQ(method_of(calls[1]), "elision_subject::Box::outer");
  EXPECT_EQ(calls[1].parent, weave::BaselineCall::kTopLevel);
  EXPECT_EQ(calls[1].bound, 4u) << "outer's subtree ends with helper";
  EXPECT_EQ(method_of(calls[2]), "elision_subject::Box::middle");
  EXPECT_EQ(calls[2].parent, 1u);
  EXPECT_EQ(calls[2].bound, 3u);
  EXPECT_EQ(method_of(calls[3]), "elision_subject::Box::helper");
  EXPECT_EQ(calls[3].parent, 1u);
  EXPECT_EQ(calls[3].bound, 4u);
  EXPECT_EQ(rt.point, 4u) << "the baseline advances the point counter";
  rt.reset_counts();
}

TEST_F(CaptureElision, CrossedCallsAlwaysCapture) {
  auto& rt = weave::Runtime::instance();
  weave::ScopedMode mode(weave::Mode::Count);
  rt.reset_counts();
  ledger_program();
  const weave::CallTable& calls = rt.calls;
  ASSERT_EQ(calls.size(), 4u);  // ctor, deposit, deposit, settle
  EXPECT_EQ(calls[1].bound, 2u);
  EXPECT_EQ(method_of(calls[2]), "elision_subject::Ledger::deposit");
  EXPECT_EQ(calls[2].bound, weave::BaselineCall::kAlways)
      << "Overdraft crossed the second deposit";
  EXPECT_EQ(calls[3].bound, 4u) << "the caught exception did not cross settle";
  rt.reset_counts();
}

// ---- safety fallback --------------------------------------------------------

// Under the injector, middle() calls risky(), which the baseline never saw.
// risky's Oops crosses middle, whose wrapper skipped its capture on the
// baseline's word, so the campaign re-runs those thresholds with every
// wrapper capturing.  Hand-derived stream (points: ctor 1, outer 2, middle
// 3, risky 4, helper 5):
//   t=3  middle's entry fires inside outer, after value_ = 1: outer N.
//   t=4  risky's entry fires inside middle: middle A, outer N.
//   t=5  Oops passes risky N and middle N and is caught in outer; helper's
//        entry then fires: outer N.
// So outer is pure, risky pure (first of its episode) and middle
// conditional — it is non-atomic only through risky.
TEST_F(CaptureElision, StrayCallThatThrowsReRunsTheThreshold) {
  const detect::Campaign campaign = detect::Experiment(box_program).run();
  EXPECT_EQ(campaign.stats.capture_reruns, 3u)
      << "thresholds 4 and 5, and the terminal probe at 6";
  EXPECT_EQ(mark_stream::render(campaign),
            "methods 5\n"
            "  0 elision_subject::Box::(ctor)\n"
            "  1 elision_subject::Box::outer\n"
            "  2 elision_subject::Box::middle\n"
            "  3 elision_subject::Box::risky\n"
            "  4 elision_subject::Box::helper\n"
            "exceptions 2\n"
            "  0 fatomic::InjectedRuntimeError\n"
            "  1 elision_subject::Oops\n"
            "run 1 0 0 escaped\n"
            "run 2 1 0 escaped\n"
            "run 3 2 0 escaped\n"
            "  mark 1 nonatomic 1 0\n"
            "run 4 3 0 escaped\n"
            "  mark 2 atomic 2 0\n"
            "  mark 1 nonatomic 1 0\n"
            "run 5 4 0 escaped\n"
            "  mark 3 nonatomic 3 1\n"
            "  mark 2 nonatomic 2 1\n"
            "  mark 1 nonatomic 1 0\n");

  const detect::Classification cls = detect::classify(campaign);
  auto cls_of = [&](const std::string& method) {
    const detect::MethodResult* r =
        cls.find("elision_subject::Box::" + method);
    return r == nullptr ? "(missing)" : detect::to_string(r->cls);
  };
  EXPECT_STREQ(cls_of("(ctor)"), "atomic");
  EXPECT_STREQ(cls_of("outer"), "pure non-atomic");
  EXPECT_STREQ(cls_of("middle"), "conditional non-atomic");
  EXPECT_STREQ(cls_of("risky"), "pure non-atomic");
  EXPECT_STREQ(cls_of("helper"), "atomic");
}

// The masked twin: middle is wrapped.  Its baseline bound (3) lies below
// thresholds 4-6, so there it takes neither a before-snapshot nor its
// atomicity wrapper's checkpoint, and runs bare.  The injection at risky's
// entry and the stray Oops then cross it with nothing to roll back to, and
// the campaign re-runs those thresholds with every selected call
// checkpointed: middle rolls back, and its Oops mark at threshold 5 is
// atomic.  The reference is the same campaign with no baseline: a program
// that makes no call under Count leaves an empty table, which every run
// leaves at its first entry.
TEST_F(CaptureElision, MaskedStrayThrowReRunsWithTheSkippedCheckpoint) {
  fatomic::Config cfg;
  cfg.mask([](const weave::MethodInfo& mi) {
    return mi.method_name() == "middle";
  });
  const detect::Campaign campaign = detect::Experiment(box_program, cfg).run();
  const detect::Campaign eager =
      detect::Experiment(
          [] {
            if (weave::Runtime::instance().mode() != weave::Mode::Count)
              box_program();
          },
          cfg)
          .run();
  EXPECT_EQ(eager.stats.capture_reruns, 0u);
  EXPECT_EQ(eager.stats.rollbacks, 3u)
      << "the injection at threshold 4 and Oops at 5 and 6";
  EXPECT_EQ(campaign.stats.capture_reruns, 3u)
      << "thresholds 4 and 5, and the terminal probe at 6";
  EXPECT_EQ(campaign.stats.rollbacks, eager.stats.rollbacks);
  EXPECT_EQ(campaign.stats.wrapped_calls, eager.stats.wrapped_calls);
  const std::string stream = mark_stream::render(campaign);
  EXPECT_EQ(stream, mark_stream::render(eager));
  EXPECT_NE(stream.find("run 5 4 0 escaped\n"
                        "  mark 3 nonatomic 3 1\n"
                        "  mark 2 atomic 2 1\n"
                        "  mark 1 nonatomic 1 0\n"),
            std::string::npos)
      << stream;
}

// The masked rollback of the second deposit leaves the balance at 5, so
// settle() now calls bonus() twice where the baseline's settle() called
// nothing (points: ctor 1, deposits 2 and 3, settle 4, bonus 5 and 6).  The
// rollback takes the run off the baseline, so settle captures although its
// baseline bound (4) lies below the bonus thresholds.
TEST_F(CaptureElision, MaskedRollbackLeavesTheBaselineWithoutReruns) {
  fatomic::Config cfg;
  cfg.mask([](const weave::MethodInfo& mi) {
    return mi.method_name() == "deposit";
  });
  const detect::Campaign campaign =
      detect::Experiment(ledger_program, cfg).run();
  EXPECT_EQ(campaign.stats.capture_reruns, 0u);
  EXPECT_EQ(campaign.stats.rollbacks, 4u)
      << "the organic Overdraft at thresholds 4-6 and the terminal probe";

  ASSERT_EQ(campaign.runs.size(), 6u);
  const detect::RunRecord& first_bonus = campaign.runs[4];
  const detect::RunRecord& second_bonus = campaign.runs[5];
  ASSERT_NE(first_bonus.injected_method, nullptr);
  EXPECT_EQ(first_bonus.injected_method->method_name(), "bonus");
  // Each run masks the Overdraft first (deposit's mark, atomic after the
  // rollback), then the injection passes settle.
  ASSERT_EQ(first_bonus.marks.size(), 2u);
  EXPECT_EQ(first_bonus.marks[0].method->method_name(), "deposit");
  EXPECT_TRUE(first_bonus.marks[0].atomic);
  EXPECT_EQ(first_bonus.marks[1].method->method_name(), "settle");
  EXPECT_TRUE(first_bonus.marks[1].atomic);
  ASSERT_EQ(second_bonus.marks.size(), 2u);
  EXPECT_EQ(second_bonus.marks[1].method->method_name(), "settle");
  EXPECT_FALSE(second_bonus.marks[1].atomic) << "the first bonus stuck";
}

// ---- a campaign runs exactly its Config -------------------------------------

// A masked verification of LinkedList that sets no plans and no validator
// takes full checkpoints only, whatever plans and validator the scope it is
// launched from holds: every counter of the campaign, partial checkpoints,
// snapshots and arena bytes included, and its mark stream equal the same
// campaign's run bare.
TEST_F(CaptureElision, AmbientPlansAndValidatorStayOutOfTheCampaign) {
  const auto& program = subjects::apps::app("LinkedList").program;
  const auto wrap = mask::wrap_pure(
      detect::classify(detect::Experiment(program).run()));
  fatomic::Config cfg;
  cfg.mask(wrap);

  const detect::Campaign bare = mask::verify_masked_full(program, cfg).campaign;
  EXPECT_EQ(bare.stats.partial_checkpoints, 0u);
  EXPECT_GT(bare.stats.snapshots_taken, 0u);

  mask::MaskedScope scope(wrap, static_plans(), /*validate=*/true);
  const detect::Campaign inside =
      mask::verify_masked_full(program, cfg).campaign;
  for (const weave::StatField& f : weave::kStatFields)
    EXPECT_EQ(inside.stats.*f.member, bare.stats.*f.member) << f.name;
  EXPECT_EQ(mark_stream::render(inside), mark_stream::render(bare));
}

// ---- frozen capture counts -------------------------------------------------

// synthetic::workload throws and catches BankError organically in
// safe_withdraw and sloppy_withdraw, so those two calls capture in every
// run (their baseline bound is "always"); every other call captures only
// when its threshold falls inside its subtree.  The eager wrapper took 378
// snapshots for the same 30 comparisons.
TEST_F(CaptureElision, SyntheticWorkloadCaptureCounts) {
  const detect::Campaign campaign =
      detect::Experiment([] { synthetic::workload(); }).run();
  EXPECT_EQ(campaign.stats.comparisons, 30u);
  EXPECT_EQ(campaign.stats.snapshots_taken, 38u);
  EXPECT_EQ(campaign.stats.capture_reruns, 0u);
}

// ---- outside campaigns -----------------------------------------------------

// A Mode::Inject run given no table (what BM_InjectionWrapperCost and
// direct wrapper tests do) keeps the eager wrapper: one capture per call.
TEST_F(CaptureElision, InjectRunWithoutTableCapturesEveryCall) {
  auto& rt = weave::Runtime::instance();
  weave::ScopedMode mode(weave::Mode::Inject);
  rt.begin_run(1000000);  // never fires
  const weave::RuntimeStats before = rt.stats;
  elision_subject::Ledger ledger;
  ledger.deposit(1);
  ledger.settle();  // settle + two bonus calls
  const weave::RuntimeStats delta = rt.stats - before;
  EXPECT_EQ(delta.snapshots_taken, 4u);
  EXPECT_EQ(delta.comparisons, 0u);
  EXPECT_FALSE(rt.capture_missed);
}

}  // namespace
