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
  const auto table = std::make_shared<fatomic::recovery::PolicyTable>();
  fatomic::Config cfg;
  cfg.jobs(8)
      .max_runs(42)
      .record_diffs(true)
      .validate_checkpoints(true)
      .prune_atomic({"A::f"})
      .exception_free("A::g")
      .no_wrap("A::h")
      .recovery(table)
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
  EXPECT_EQ(cfg.recovery(), table);
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
