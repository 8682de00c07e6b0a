// The recovery policy engine (recovery/, DESIGN.md §14): the action
// lattice's JSON codec, the evidence-to-policy derivation rules, and the
// runtime semantics of every action — including the edge cases the design
// pins down: retry-budget exhaustion falls back to rollback + rethrow, and
// degrade never masks a corrupted-state verdict.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "fatomic/analyze/static_report.hpp"
#include "fatomic/detect/campaign.hpp"
#include "fatomic/detect/experiment.hpp"
#include "fatomic/mask/masker.hpp"
#include "fatomic/recovery/derive.hpp"
#include "fatomic/recovery/policy.hpp"
#include "fatomic/recovery/policy_io.hpp"
#include "fatomic/report/json.hpp"
#include "fatomic/report/json_parse.hpp"
#include "fatomic/snapshot/partial.hpp"
#include "fatomic/weave/macros.hpp"
#include "fatomic/weave/runtime.hpp"
#include "subjects/apps/apps.hpp"
#include "subjects/net/transport.hpp"
#include "testing/synthetic.hpp"

namespace analyze = fatomic::analyze;
namespace detect = fatomic::detect;
namespace mask = fatomic::mask;
namespace recovery = fatomic::recovery;
namespace report = fatomic::report;
namespace snapshot = fatomic::snapshot;
namespace weave = fatomic::weave;

namespace {

const std::string kSubjectRoot = std::string(FATOMIC_SOURCE_DIR) + "/subjects";

const analyze::StaticReport& static_report() {
  static const analyze::StaticReport r = analyze::analyze_sources(kSubjectRoot);
  return r;
}

/// A one-entry policy table, shared_ptr-wrapped for runtime installation.
std::shared_ptr<const recovery::PolicyTable> one_policy(
    const std::string& method, recovery::RecoveryPolicy pol) {
  auto table = std::make_shared<recovery::PolicyTable>();
  table->set(method, std::move(pol));
  return table;
}

/// Wrap predicate selecting exactly one qualified method name.
weave::Runtime::WrapPredicate wrap_only(const std::string& method) {
  return [method](const weave::MethodInfo& mi) {
    return mi.qualified_name() == method;
  };
}

class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override { weave::Runtime::instance().stats = {}; }

  void TearDown() override {
    auto& rt = weave::Runtime::instance();
    rt.set_mode(weave::Mode::Direct);
    rt.set_wrap_predicate(nullptr);
    rt.set_recovery_policies(nullptr);
    rt.set_checkpoint_plans(nullptr);
    rt.fault_period = 0;
    rt.fault_counter = 0;
    rt.stats = {};
  }
};

}  // namespace

// --- codec ------------------------------------------------------------------

TEST_F(RecoveryTest, ActionTagsRoundTrip) {
  using recovery::Action;
  for (Action a : {Action::Rollback, Action::RethrowAs, Action::EarlyReturn,
                   Action::Retry, Action::Degrade})
    EXPECT_EQ(recovery::parse_action(recovery::to_string(a)), a);
  EXPECT_THROW(recovery::parse_action("abort"), std::invalid_argument);
}

TEST_F(RecoveryTest, PolicyTableJsonRoundTrips) {
  recovery::PolicyTable table;
  {
    recovery::RecoveryPolicy p;
    p.action = recovery::Action::Retry;
    p.retry_budget = 3;
    p.rollback_before_retry = false;
    p.exception_overrides["subjects::net::NetError"] =
        recovery::Action::Degrade;
    p.exception_overrides["std::bad_alloc"] = recovery::Action::RethrowAs;
    table.set("A::f", p);
  }
  {
    recovery::RecoveryPolicy p;
    p.action = recovery::Action::RethrowAs;
    table.set("A::g", p);
  }
  table.set("A::h", recovery::RecoveryPolicy{});  // all defaults

  const std::string text = recovery::policy_table_json(table);
  EXPECT_EQ(recovery::parse_policy_table(text), table);

  // The emitted document is strict JSON carrying the shared schema counter,
  // and survives the generic reader's dump() unchanged.
  const auto doc = report::json_parse(text);
  EXPECT_EQ(doc.at("schema_version").as_int(), 2);
  EXPECT_EQ(doc.at("policies").array.size(), 3u);
  EXPECT_EQ(report::json_parse(doc.dump()).dump(), doc.dump());
}

TEST_F(RecoveryTest, ParseErrorsReportOriginLineAndColumn) {
  // Semantic error (unknown action tag) on a known line.
  const std::string bad_action =
      "{\n"
      "  \"schema_version\": 2,\n"
      "  \"policies\": [\n"
      "    {\"method\": \"A::f\", \"action\": \"explode\"}\n"
      "  ]\n"
      "}";
  try {
    recovery::parse_policy_table(bad_action, "policies.json");
    FAIL() << "unknown action tag must throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("policies.json"), std::string::npos) << what;
    EXPECT_NE(what.find("line 4"), std::string::npos) << what;
    EXPECT_NE(what.find("column"), std::string::npos) << what;
  }

  // Malformed JSON gets the same line/column convention.
  try {
    recovery::parse_policy_table("{\"schema_version\": 2,\n  \"policies\": [",
                                 "broken.json");
    FAIL() << "truncated JSON must throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("broken.json"), std::string::npos) << what;
    EXPECT_NE(what.find("line 2"), std::string::npos) << what;
  }

  // Version discipline: missing and too-new schema versions are rejected.
  EXPECT_THROW(recovery::parse_policy_table("{\"policies\": []}"),
               std::runtime_error);
  EXPECT_THROW(recovery::parse_policy_table(
                   "{\"schema_version\": 3, \"policies\": []}"),
               std::runtime_error);

  // Counts must be integers that fit an unsigned, and the version a whole
  // 1 or 2: each is checked before any cast, and the error names the
  // origin and the field.
  const auto entry = [](const char* field_and_value) {
    return std::string(R"({"schema_version": 2, "policies": [)") +
           R"({"method": "A::f", "action": "retry", )" + field_and_value +
           "}]}";
  };
  const std::pair<std::string, const char*> bad_numbers[] = {
      {entry(R"("retry_budget": 4294967296)"), "retry_budget"},
      {entry(R"("retry_budget": 2.5)"), "retry_budget"},
      {entry(R"("retry_budget": 1e20)"), "retry_budget"},
      {R"({"schema_version": 1.9, "policies": []})", "schema_version"},
  };
  for (const auto& [document, field] : bad_numbers) {
    try {
      recovery::parse_policy_table(document, "numbers.json");
      ADD_FAILURE() << "must throw: " << document;
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("numbers.json"), std::string::npos) << what;
      EXPECT_NE(what.find(field), std::string::npos) << what;
    }
  }

  // A key outside the schema is refused at every level, where it stands: a
  // misspelled key would otherwise leave its field at the default.  So is a
  // retired one: backoff_us and rethrow_type are no longer policy fields.
  // A key given twice, two policies for one method and two overrides for one
  // exception would each let one of the two win without a word: each is
  // refused where the second stands.
  struct Refused {
    std::string document;
    const char* what;
    const char* line;
  };
  const Refused refused[] = {
      {"{\"schema_version\": 2, \"policies\": [],\n"
       " \"polices\": [{\"method\": \"A::f\", \"action\": \"retry\"}]}",
       "unknown key \"polices\" in the document", "line 2, column 3"},
      {"{\"schema_version\": 2, \"policies\": [\n"
       " {\"method\": \"A::f\", \"action\": \"retry\",\n"
       "  \"retry_budgte\": 3}]}",
       "unknown key \"retry_budgte\"", "line 3, column 4"},
      {"{\"schema_version\": 2, \"policies\": [\n"
       " {\"method\": \"A::f\", \"action\": \"retry\", \"overrides\": [\n"
       "  {\"exception\": \"E\", \"action\": \"degrade\","
       " \"actoin\": \"retry\"}]}]}",
       "unknown key \"actoin\"", "line 3, column 44"},
      {entry(R"("backoff_us": 4294967297)"), "unknown key \"backoff_us\"",
       "line 1, column 75"},
      {entry(R"("rethrow_type": "ServiceError")"),
       "unknown key \"rethrow_type\"", "line 1, column 75"},
      {"{\"schema_version\": 2,\n \"schema_version\": 1, \"policies\": []}",
       "repeated key \"schema_version\" in the document", "line 2, column 3"},
      {"{\"schema_version\": 2, \"policies\": [\n"
       " {\"method\": \"A::f\", \"action\": \"retry\", \"retry_budget\": 3,\n"
       "  \"retry_budget\": 0}]}",
       "repeated key \"retry_budget\" in the policy for 'A::f'",
       "line 3, column 4"},
      {"{\"schema_version\": 2, \"policies\": [\n"
       " {\"method\": \"A::f\", \"action\": \"retry\", \"overrides\": [\n"
       "  {\"exception\": \"E\", \"action\": \"degrade\","
       " \"action\": \"retry\"}]}]}",
       "repeated key \"action\" in an override of 'A::f'", "line 3, column 44"},
      {"{\"schema_version\": 2, \"policies\": [\n"
       " {\"method\": \"A::f\", \"action\": \"retry\"},\n"
       " {\"method\": \"A::f\", \"action\": \"rollback\"}]}",
       "second policy for 'A::f'", "line 3, column 14"},
      {"{\"schema_version\": 2, \"policies\": [\n"
       " {\"method\": \"A::f\", \"action\": \"retry\", \"overrides\": [\n"
       "  {\"exception\": \"E\", \"action\": \"degrade\"},"
       " {\"exception\": \"E\", \"action\": \"retry\"}]}]}",
       "second override for 'E' in the policy for 'A::f'", "line 3, column 59"},
  };
  for (const Refused& r : refused) {
    try {
      recovery::parse_policy_table(r.document, "keys.json");
      ADD_FAILURE() << "must throw: " << r.document;
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("keys.json"), std::string::npos) << what;
      EXPECT_NE(what.find(r.what), std::string::npos) << what;
      EXPECT_NE(what.find(r.line), std::string::npos) << what;
    }
  }
}

// A value of the wrong type is refused where it stands, naming the method.
namespace {

/// The message parse_policy_table refuses the one-policy document whose
/// third line is `third_line` with.
std::string refusal(const std::string& third_line) {
  try {
    recovery::parse_policy_table(
        "{\"schema_version\": 2, \"policies\": [\n"
        " {\"method\": \"A::f\", \"action\": \"retry\",\n" +
            third_line + "}]}",
        "types.json");
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "(accepted)";
}

}  // namespace

TEST_F(RecoveryTest, FractionalRetryBudgetIsRefusedAtItsValue) {
  EXPECT_EQ(refusal(R"(  "retry_budget": 2.5)"),
            "types.json: policy table: line 3, column 19: 'retry_budget' must "
            "be an integer from 0 to 4294967295 in the policy for 'A::f'");
}

TEST_F(RecoveryTest, NonBooleanRollbackBeforeRetryIsRefusedAtItsValue) {
  EXPECT_EQ(refusal(R"(  "rollback_before_retry": 1)"),
            "types.json: policy table: line 3, column 28: "
            "'rollback_before_retry' must be a boolean in the policy for "
            "'A::f'");
}

TEST_F(RecoveryTest, NonArrayOverridesAreRefusedAtTheirValue) {
  EXPECT_EQ(refusal(R"(  "overrides": {})"),
            "types.json: policy table: line 3, column 16: 'overrides' must be "
            "an array in the policy for 'A::f'");
  EXPECT_EQ(refusal(R"(  "overrides": [{"exception": "E"}])"),
            "types.json: policy table: line 3, column 17: overrides need "
            "\"exception\" and \"action\" strings in the policy for 'A::f'");
}

TEST_F(RecoveryTest, LoadPolicyFileReportsUnreadablePath) {
  try {
    recovery::load_policy_file("/nonexistent/policies.json");
    FAIL() << "missing file must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("/nonexistent/policies.json"),
              std::string::npos);
  }
}

// --- derivation -------------------------------------------------------------

TEST_F(RecoveryTest, DerivationFollowsTheEvidenceLattice) {
  const auto derived = recovery::derive_policy_table(static_report(), nullptr);
  ASSERT_EQ(derived.table->size(), static_report().write_sets.methods.size());

  std::size_t proven = 0, partial = 0, pinned = 0;
  for (const auto& [name, pol] : derived.table->policies()) {
    const auto why = derived.evidence.at(name);
    if (why == "proven-atomic (prune set)") {
      // Proven atomic admits retry WITHOUT rollback — no checkpoint needed.
      EXPECT_EQ(pol.action, recovery::Action::Retry) << name;
      EXPECT_FALSE(pol.rollback_before_retry) << name;
      EXPECT_GT(pol.retry_budget, 0u) << name;
      ++proven;
    } else if (why.rfind("partial plan", 0) == 0) {
      // A verified plan licenses retry only behind the plan-scoped rollback.
      EXPECT_EQ(pol.action, recovery::Action::Retry) << name;
      EXPECT_TRUE(pol.rollback_before_retry) << name;
      ++partial;
    } else {
      // ⊤-collapsed or unproven: pinned to the always-sound strategy.
      EXPECT_EQ(pol.action, recovery::Action::Rollback) << name;
      EXPECT_TRUE(pol.exception_overrides.empty())
          << name << ": no override may soften a pinned method";
      ++pinned;
    }
  }
  // The subject tree has substantial populations of all three classes
  // (`--precision-floor` gates the exact counts).
  EXPECT_GT(proven, 0u);
  EXPECT_GT(partial, 0u);
  EXPECT_GT(pinned, 0u);
}

TEST_F(RecoveryTest, CampaignHistogramsWeightOverridesOnNonPinnedOnly) {
  const auto& sreport = static_report();
  const auto base = recovery::derive_policy_table(sreport, nullptr);

  // MethodInfo registers lazily on first invocation, so run every subject
  // workload once (Direct mode) before asking the registry to resolve
  // methods named by the static report.
  for (const auto& a : subjects::apps::all_apps()) a.program();
  subjects::apps::run_lint_demo();
  subjects::apps::run_net_demo();
  subjects::apps::run_server_demo();

  // Pick one non-pinned and one pinned method off the real report,
  // restricted to methods the registry can actually resolve.
  auto& reg = weave::MethodRegistry::instance();
  std::string open_method, pinned_method;
  for (const auto& [name, pol] : base.table->policies()) {
    if (reg.find(name) == nullptr) continue;
    if (pol.action != recovery::Action::Rollback && open_method.empty())
      open_method = name;
    if (pol.action == recovery::Action::Rollback && pinned_method.empty())
      pinned_method = name;
  }
  ASSERT_FALSE(open_method.empty());
  ASSERT_FALSE(pinned_method.empty());
  const weave::MethodInfo* open_mi = reg.find(open_method);
  const weave::MethodInfo* pinned_mi = reg.find(pinned_method);

  // Synthetic campaign evidence:
  //  - "custom::Timeout" observed twice through both methods, state intact
  //    every time  -> degrade override (non-pinned method only);
  //  - "custom::Fatal" observed twice, escaped the program every time
  //    -> rethrow_as override (non-pinned method only);
  //  - "custom::Rare" observed once -> below min_observations, no override.
  detect::Campaign campaign;
  auto mark = [](const weave::MethodInfo* mi, bool atomic,
                 const std::string& type) {
    weave::Mark m;
    m.method = mi;
    m.atomic = atomic;
    m.depth = 1;
    m.exception_type = type;
    return m;
  };
  for (int i = 0; i < 2; ++i) {
    detect::RunRecord intact;
    intact.marks = {mark(open_mi, true, "custom::Timeout"),
                    mark(pinned_mi, true, "custom::Timeout")};
    campaign.runs.push_back(intact);

    detect::RunRecord escaped;
    escaped.escaped = true;
    escaped.marks = {mark(open_mi, false, "custom::Fatal"),
                     mark(pinned_mi, false, "custom::Fatal")};
    campaign.runs.push_back(escaped);
  }
  detect::RunRecord rare;
  rare.marks = {mark(open_mi, true, "custom::Rare")};
  campaign.runs.push_back(rare);

  const auto derived = recovery::derive_policy_table(sreport, &campaign);
  const auto* open_pol = derived.table->find(open_method);
  ASSERT_NE(open_pol, nullptr);
  EXPECT_EQ(open_pol->action_for("custom::Timeout"),
            recovery::Action::Degrade);
  EXPECT_EQ(open_pol->action_for("custom::Fatal"),
            recovery::Action::RethrowAs);
  EXPECT_EQ(open_pol->action_for("custom::Rare"), open_pol->action)
      << "a single observation is not a pattern";

  const auto* pinned_pol = derived.table->find(pinned_method);
  ASSERT_NE(pinned_pol, nullptr);
  EXPECT_EQ(pinned_pol->action, recovery::Action::Rollback);
  EXPECT_TRUE(pinned_pol->exception_overrides.empty())
      << "histogram evidence must never soften a pinned method";
}

// --- runtime semantics ------------------------------------------------------

TEST_F(RecoveryTest, RetryWithoutRollbackHealsTransientFault) {
  auto& rt = weave::Runtime::instance();
  recovery::RecoveryPolicy pol;
  pol.action = recovery::Action::Retry;
  pol.retry_budget = 1;
  pol.rollback_before_retry = false;  // the proven-atomic shape
  mask::MaskedScope scope(wrap_only("synthetic::Account::set"), nullptr,
                          false, one_policy("synthetic::Account::set", pol));
  synthetic::Account a;
  rt.stats = {};
  // Arm the production injector to fault exactly the first attempt: the
  // counter reaches the period on it, and the retry lands past it.
  rt.fault_period = 2;
  rt.fault_counter = 1;
  EXPECT_NO_THROW(a.set(42));
  rt.fault_period = 0;
  EXPECT_EQ(a.value(), 42);
  EXPECT_EQ(rt.stats.faults_injected, 1u);
  EXPECT_EQ(rt.stats.retry_attempts, 1u);
  EXPECT_EQ(rt.stats.retry_successes, 1u);
  EXPECT_EQ(rt.stats.snapshots_taken, 0u)
      << "proven-atomic retry must not checkpoint";
}

TEST_F(RecoveryTest, RetryExhaustionFallsBackToRollbackAndRethrow) {
  auto& rt = weave::Runtime::instance();
  recovery::RecoveryPolicy pol;
  pol.action = recovery::Action::Retry;
  pol.retry_budget = 2;
  mask::MaskedScope scope(
      wrap_only("synthetic::Account::sloppy_withdraw"), nullptr, false,
      one_policy("synthetic::Account::sloppy_withdraw", pol));
  synthetic::Account a;
  a.set(10);
  rt.stats = {};
  // The deterministic bug fails every attempt: budget burns down, then the
  // engine rolls back and rethrows the original exception.
  EXPECT_THROW(a.sloppy_withdraw(100), synthetic::BankError);
  EXPECT_EQ(a.value(), 10) << "exhaustion must leave the entry state";
  EXPECT_EQ(rt.stats.retry_attempts, 2u);
  EXPECT_EQ(rt.stats.retry_exhaustions, 1u);
  EXPECT_EQ(rt.stats.retry_successes, 0u);
  // One entry checkpoint per call, restored after each failed attempt.
  EXPECT_EQ(rt.stats.snapshots_taken, 1u);
  EXPECT_EQ(rt.stats.rollbacks, 3u);
}

TEST_F(RecoveryTest, RetriedCallTakesOnePartialCheckpoint) {
  auto& rt = weave::Runtime::instance();
  recovery::RecoveryPolicy pol;
  pol.action = recovery::Action::Retry;
  pol.retry_budget = 2;
  snapshot::CheckpointPlan plan;
  plan.partial = true;
  plan.capture = {"value_"};
  auto plans = std::make_shared<weave::PlanMap>();
  (*plans)["synthetic::Account::sloppy_withdraw"] = plan;
  mask::MaskedScope scope(
      wrap_only("synthetic::Account::sloppy_withdraw"), plans,
      /*validate=*/true,
      one_policy("synthetic::Account::sloppy_withdraw", pol));
  synthetic::Account a;
  a.set(10);
  rt.stats = {};
  EXPECT_THROW(a.sloppy_withdraw(100), synthetic::BankError);
  EXPECT_EQ(a.value(), 10);
  EXPECT_EQ(rt.stats.partial_checkpoints, 1u) << "one capture per call";
  EXPECT_EQ(rt.stats.partial_fallbacks, 0u);
  EXPECT_EQ(rt.stats.snapshots_taken, 0u);
  EXPECT_EQ(rt.stats.rollbacks, 3u);
  EXPECT_EQ(rt.stats.validator_divergences, 0u)
      << "the one shadow checks every partial restore";
}

namespace {

/// A deposit whose first attempt fails after it has written: a retry that
/// did not start from the restored receiver would deposit twice.
class FlakyLedger {
 public:
  void deposit(int amount) {
    FAT_INVOKE(deposit, [&] {
      balance_ += amount;
      if (fail_next_) {
        fail_next_ = false;
        throw std::runtime_error("deposit: transient failure");
      }
    });
  }
  int balance() const { return balance_; }

 private:
  FAT_REFLECT_FRIEND(FlakyLedger);
  FAT_METHOD_INFO(FlakyLedger, deposit);

  int balance_ = 0;
  bool fail_next_ = true;  // not reflected: a rollback leaves it alone
};

}  // namespace

FAT_REFLECT(FlakyLedger, FAT_FIELD(FlakyLedger, balance_));

TEST_F(RecoveryTest, RetryStartsFromTheRestoredReceiver) {
  auto& rt = weave::Runtime::instance();
  recovery::RecoveryPolicy pol;
  pol.action = recovery::Action::Retry;
  pol.retry_budget = 1;
  mask::MaskedScope scope(wrap_only("FlakyLedger::deposit"), nullptr, false,
                          one_policy("FlakyLedger::deposit", pol));
  FlakyLedger ledger;
  rt.stats = {};
  EXPECT_NO_THROW(ledger.deposit(5));
  EXPECT_EQ(ledger.balance(), 5) << "the mutation lands exactly once";
  EXPECT_EQ(rt.stats.rollbacks, 1u);
  EXPECT_EQ(rt.stats.retry_successes, 1u);
}

TEST_F(RecoveryTest, RetryWithoutRollbackStillRestoresAHeldCheckpoint) {
  // An override that needs state makes the call take a checkpoint even
  // though the base retry does not ask for one; once held, it is restored
  // before the retry.
  auto& rt = weave::Runtime::instance();
  recovery::RecoveryPolicy pol;
  pol.action = recovery::Action::Retry;
  pol.retry_budget = 1;
  pol.rollback_before_retry = false;
  pol.exception_overrides["subjects::net::NetError"] =
      recovery::Action::Rollback;
  mask::MaskedScope scope(wrap_only("FlakyLedger::deposit"), nullptr, false,
                          one_policy("FlakyLedger::deposit", pol));
  FlakyLedger ledger;
  rt.stats = {};
  EXPECT_NO_THROW(ledger.deposit(5));
  EXPECT_EQ(ledger.balance(), 5) << "the retry starts from the checkpoint";
  EXPECT_EQ(rt.stats.rollbacks, 1u);
  EXPECT_EQ(rt.stats.retry_successes, 1u);
}

TEST_F(RecoveryTest, DegradeSwallowsOnlyWhenStateIsIntact) {
  auto& rt = weave::Runtime::instance();
  recovery::RecoveryPolicy pol;
  pol.action = recovery::Action::Degrade;
  mask::MaskedScope scope(
      wrap_only("synthetic::Account::safe_withdraw"), nullptr, false,
      one_policy("synthetic::Account::safe_withdraw", pol));
  synthetic::Account a;
  a.set(5);
  rt.stats = {};
  // safe_withdraw checks before acting — its failure leaves the state
  // intact, so the guarded compare licenses continuing past it.
  EXPECT_NO_THROW(a.safe_withdraw(100));
  EXPECT_EQ(a.value(), 5);
  EXPECT_EQ(rt.stats.degraded_calls, 1u);
  EXPECT_EQ(rt.stats.degrade_refusals, 0u);
}

TEST_F(RecoveryTest, DegradeNeverMasksACorruptedStateVerdict) {
  auto& rt = weave::Runtime::instance();
  recovery::RecoveryPolicy pol;
  pol.action = recovery::Action::Degrade;
  mask::MaskedScope scope(
      wrap_only("synthetic::Account::sloppy_withdraw"), nullptr,
      /*validate=*/true,
      one_policy("synthetic::Account::sloppy_withdraw", pol));
  synthetic::Account a;
  a.set(10);
  rt.stats = {};
  // sloppy_withdraw mutates before throwing: the post-exception state
  // differs from the checkpoint, so degrade must refuse, roll back and
  // rethrow — failure-oblivious continuation never hides corruption.
  EXPECT_THROW(a.sloppy_withdraw(100), synthetic::BankError);
  EXPECT_EQ(a.value(), 10) << "refused degrade must restore the checkpoint";
  EXPECT_EQ(rt.stats.degrade_refusals, 1u);
  EXPECT_EQ(rt.stats.degraded_calls, 0u);
  EXPECT_EQ(rt.stats.validator_divergences, 0u);
}

TEST_F(RecoveryTest, EarlyReturnYieldsNeutralValueAfterRollback) {
  auto& rt = weave::Runtime::instance();
  recovery::RecoveryPolicy pol;
  pol.action = recovery::Action::EarlyReturn;
  mask::MaskedScope scope(
      wrap_only("subjects::net::Channel::take"), nullptr, false,
      one_policy("subjects::net::Channel::take", pol));
  subjects::net::Channel ch;
  rt.stats = {};
  std::string taken = "sentinel";
  // take() on an empty channel throws NetError; the policy converts it into
  // the neutral (value-initialized) return.
  EXPECT_NO_THROW(taken = ch.take());
  EXPECT_EQ(taken, "");
  EXPECT_EQ(rt.stats.early_returns, 1u);
}

TEST_F(RecoveryTest, RethrowAsTransformsIntoServiceError) {
  auto& rt = weave::Runtime::instance();
  recovery::RecoveryPolicy pol;
  pol.action = recovery::Action::RethrowAs;
  mask::MaskedScope scope(
      wrap_only("synthetic::Account::sloppy_withdraw"), nullptr, false,
      one_policy("synthetic::Account::sloppy_withdraw", pol));
  synthetic::Account a;
  a.set(10);
  rt.stats = {};
  try {
    a.sloppy_withdraw(100);
    FAIL() << "rethrow_as must still throw";
  } catch (const recovery::ServiceError& e) {
    EXPECT_NE(e.original_type().find("BankError"), std::string::npos)
        << e.original_type();
    EXPECT_NE(std::string(e.what()).find("transformed from"),
              std::string::npos);
  }
  EXPECT_EQ(a.value(), 10) << "transformation happens after rollback";
  EXPECT_EQ(rt.stats.transformed_rethrows, 1u);
}

TEST_F(RecoveryTest, EmptyTableRollsBackWithTheConstantPolicy) {
  auto& rt = weave::Runtime::instance();
  mask::MaskedScope scope(wrap_only("synthetic::Account::sloppy_withdraw"),
                          nullptr, false,
                          std::make_shared<const recovery::PolicyTable>());
  synthetic::Account a;
  a.set(10);
  rt.stats = {};
  EXPECT_THROW(a.sloppy_withdraw(100), synthetic::BankError);
  EXPECT_EQ(a.value(), 10);
  // A method without an entry runs recovery::kRollbackPolicy: one
  // rollback-and-rethrow, and no other action.
  EXPECT_EQ(rt.stats.policy_rollbacks, 1u);
  EXPECT_EQ(rt.stats.retry_attempts, 0u);
  EXPECT_EQ(rt.stats.degraded_calls, 0u);
  EXPECT_GT(rt.stats.rollbacks, 0u) << "the constant policy rolled back";
}

// --- report round trip ------------------------------------------------------

TEST_F(RecoveryTest, CampaignJsonCarriesSchemaVersionAndRecoverySection) {
  detect::Experiment exp(synthetic::workload);
  const auto campaign = exp.run();
  const auto doc = report::json_parse(report::campaign_json(campaign));
  EXPECT_EQ(doc.at("schema_version").as_int(), 2);
  const auto& rec = doc.at("recovery");
  // A plain campaign never engages the engine: the section is present (the
  // schema bump) with every counter at zero.
  EXPECT_EQ(rec.at("faults_injected").as_int(), 0);
  EXPECT_EQ(rec.at("retry_attempts").as_int(), 0);
  EXPECT_EQ(rec.at("degraded_calls").as_int(), 0);
  EXPECT_EQ(rec.at("policy_rollbacks").as_int(), 0);
  // And the document survives the reader's dump() byte-for-byte.
  EXPECT_EQ(report::json_parse(doc.dump()).dump(), doc.dump());
}
