// fatomic::Config — the one configuration surface: every setter chains and
// shows through its getter, the policy flows into classification, and a
// masked config drives the verification campaign.
#include "fatomic/config.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>

#include "fatomic/detect/classify.hpp"
#include "fatomic/detect/experiment.hpp"
#include "fatomic/mask/masker.hpp"
#include "testing/synthetic.hpp"

namespace detect = fatomic::detect;
namespace weave = fatomic::weave;

namespace {

class ConfigTest : public ::testing::Test {
 protected:
  void TearDown() override {
    auto& rt = weave::Runtime::instance();
    rt.set_mode(weave::Mode::Direct);
    rt.set_wrap_predicate(nullptr);
    rt.trace.disable();
  }
};

}  // namespace

TEST_F(ConfigTest, BuilderSettersChainAndGettersReflect) {
  fatomic::Config cfg;
  cfg.jobs(8)
      .max_runs(42)
      .record_diffs(true)
      .validate_checkpoints(true)
      .prune_atomic({"A::f"})
      .exception_free("A::g")
      .no_wrap("A::h")
      .tracing(true)
      .provenance(true);
  EXPECT_EQ(cfg.jobs(), 8u);
  EXPECT_TRUE(cfg.tracing());
  EXPECT_FALSE(static_cast<bool>(cfg.wrap())) << "unmasked: wraps nothing";
  EXPECT_EQ(cfg.max_runs(), 42u);
  EXPECT_TRUE(cfg.record_diffs());
  EXPECT_TRUE(cfg.validate_checkpoints());
  EXPECT_TRUE(cfg.provenance());
  EXPECT_EQ(cfg.prune_atomic(), (std::set<std::string>{"A::f"}));
  EXPECT_EQ(cfg.policy().exception_free.count("A::g"), 1u);
  EXPECT_EQ(cfg.policy().no_wrap.count("A::h"), 1u);
}

TEST_F(ConfigTest, MaskInstallsPredicateAndFlipsMasked) {
  fatomic::Config cfg;
  cfg.mask([](const weave::MethodInfo&) { return true; });
  ASSERT_TRUE(static_cast<bool>(cfg.wrap()));
  // A masked config is one with a predicate; mask(nullptr) unmasks.
  cfg.mask(nullptr);
  EXPECT_FALSE(static_cast<bool>(cfg.wrap()));
}

TEST_F(ConfigTest, PolicyFlowsIntoClassification) {
  fatomic::Config cfg;
  cfg.exception_free("synthetic::Account::helper");
  detect::Campaign c = detect::Experiment(synthetic::workload, cfg).run();
  // The policy is carried by the config, not the campaign — classify with it.
  auto with = detect::classify(c, cfg.policy());
  auto without = detect::classify(c);
  EXPECT_LE(with.nonatomic_names().size(), without.nonatomic_names().size());
}

TEST_F(ConfigTest, ConfigDrivenMaskVerification) {
  auto cls = detect::classify(detect::Experiment(synthetic::workload).run());
  fatomic::Config cfg;
  cfg.jobs(2).mask(fatomic::mask::wrap_pure(cls));
  const auto verified =
      fatomic::mask::verify_masked_full(synthetic::workload, cfg);
  EXPECT_TRUE(verified.classification.nonatomic_names().empty());
}

TEST_F(ConfigTest, RecoveryBuilderAccumulatesPolicies) {
  namespace recovery = fatomic::recovery;
  fatomic::Config cfg;
  recovery::RecoveryPolicy retry;
  retry.action = recovery::Action::Retry;
  retry.retry_budget = 3;
  cfg.recovery_policy("A::f", retry)
      .recovery_policy("A::g", recovery::RecoveryPolicy{});
  ASSERT_NE(cfg.recovery(), nullptr);
  EXPECT_EQ(cfg.recovery()->size(), 2u);
  const recovery::RecoveryPolicy* found = cfg.recovery()->find("A::f");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->action, recovery::Action::Retry);
  EXPECT_EQ(found->retry_budget, 3u);

  // Replacing the whole table drops the builder's accumulation; the builder
  // then extends a copy of the installed table.
  auto table = std::make_shared<recovery::PolicyTable>();
  cfg.recovery(table);
  EXPECT_EQ(cfg.recovery(), table);
  cfg.recovery_policy("A::h", recovery::RecoveryPolicy{});
  EXPECT_TRUE(table->empty());
  EXPECT_EQ(cfg.recovery()->size(), 1u);
}

TEST_F(ConfigTest, CopiedConfigKeepsItsOwnRecoveryTable) {
  namespace recovery = fatomic::recovery;
  fatomic::Config a;
  a.recovery_policy("A::f", recovery::RecoveryPolicy{});
  const auto handed_out = a.recovery();

  fatomic::Config b = a;
  b.recovery_policy("A::g", recovery::RecoveryPolicy{});
  EXPECT_EQ(b.recovery()->size(), 2u);
  EXPECT_EQ(a.recovery()->size(), 1u) << "the original must not see A::g";
  EXPECT_EQ(a.recovery()->find("A::g"), nullptr);

  a.recovery_policy("A::h", recovery::RecoveryPolicy{});
  EXPECT_EQ(handed_out->size(), 1u)
      << "a table already handed out must not change";
  EXPECT_EQ(a.recovery()->size(), 2u);
}
