#include "fatomic/mask/masker.hpp"

#include <gtest/gtest.h>

#include <utility>

#include "fatomic/detect/experiment.hpp"
#include "testing/synthetic.hpp"

namespace detect = fatomic::detect;
namespace mask = fatomic::mask;
namespace weave = fatomic::weave;
using detect::MethodClass;

namespace {

class MaskTest : public ::testing::Test {
 protected:
  static const detect::Classification& classification() {
    static detect::Classification cls = [] {
      detect::Experiment exp(synthetic::workload);
      return detect::classify(exp.run());
    }();
    return cls;
  }

  /// The classification of the synthetic workload masked by `wrap`.
  static detect::Classification verify(weave::Runtime::WrapPredicate wrap) {
    fatomic::Config cfg;
    cfg.mask(std::move(wrap));
    return mask::verify_masked_full(synthetic::workload, cfg).classification;
  }

  void TearDown() override {
    weave::Runtime::instance().set_mode(weave::Mode::Direct);
    weave::Runtime::instance().set_wrap_predicate(nullptr);
  }
};

}  // namespace

TEST_F(MaskTest, WrapPureSelectsExactlyPureMethods) {
  auto wrap = mask::wrap_pure(classification());
  auto& reg = weave::MethodRegistry::instance();
  EXPECT_TRUE(wrap(*reg.find("synthetic::Account::nonatomic_update")));
  EXPECT_TRUE(wrap(*reg.find("synthetic::Account::sloppy_withdraw")));
  EXPECT_TRUE(wrap(*reg.find("synthetic::Account::batch_add")));
  EXPECT_TRUE(wrap(*reg.find("synthetic::Account::transfer_all")));
  EXPECT_FALSE(wrap(*reg.find("synthetic::Account::calls_nonatomic")));
  EXPECT_FALSE(wrap(*reg.find("synthetic::Account::guarded_batch")));
  EXPECT_FALSE(wrap(*reg.find("synthetic::Account::set")));
}

TEST_F(MaskTest, WrapAllSelectsConditionalToo) {
  auto wrap = mask::wrap_all_nonatomic(classification());
  auto& reg = weave::MethodRegistry::instance();
  EXPECT_TRUE(wrap(*reg.find("synthetic::Account::calls_nonatomic")));
  EXPECT_TRUE(wrap(*reg.find("synthetic::Account::guarded_batch")));
  EXPECT_FALSE(wrap(*reg.find("synthetic::Account::set")));
}

TEST_F(MaskTest, NoWrapPolicyExcludesMethods) {
  detect::Policy policy;
  policy.no_wrap.insert("synthetic::Account::sloppy_withdraw");
  auto wrap = mask::wrap_pure(classification(), policy);
  auto& reg = weave::MethodRegistry::instance();
  EXPECT_FALSE(wrap(*reg.find("synthetic::Account::sloppy_withdraw")));
  EXPECT_TRUE(wrap(*reg.find("synthetic::Account::nonatomic_update")));
}

TEST_F(MaskTest, MaskedScopeMasksTheRealBug) {
  mask::MaskedScope scope(mask::wrap_pure(classification()));
  synthetic::Account a;
  a.set(10);
  EXPECT_THROW(a.sloppy_withdraw(100), synthetic::BankError);
  EXPECT_EQ(a.value(), 10) << "corrected program must preserve state";
}

TEST_F(MaskTest, MaskedWorkloadRunsToCompletion) {
  mask::MaskedScope scope(mask::wrap_pure(classification()));
  EXPECT_NO_THROW(synthetic::workload());
}

TEST_F(MaskTest, VerifyMaskedWithPureWrapYieldsZeroNonAtomic) {
  auto verified = verify(mask::wrap_pure(classification()));
  EXPECT_TRUE(verified.nonatomic_names().empty())
      << "wrapping all pure failure non-atomic methods must make the whole "
         "program failure atomic";
}

TEST_F(MaskTest, VerifyMaskedWithAllWrapYieldsZeroNonAtomic) {
  auto verified = verify(mask::wrap_all_nonatomic(classification()));
  EXPECT_TRUE(verified.nonatomic_names().empty());
}

TEST_F(MaskTest, VerifyUnmaskedStillFindsTheBugs) {
  auto verified = verify([](const weave::MethodInfo&) { return false; });
  EXPECT_FALSE(verified.nonatomic_names().empty());
}

TEST_F(MaskTest, PartialMaskLeavesExcludedBugDetectable) {
  detect::Policy policy;
  policy.no_wrap.insert("synthetic::Account::sloppy_withdraw");
  auto verified = verify(mask::wrap_pure(classification(), policy));
  const auto* r = verified.find("synthetic::Account::sloppy_withdraw");
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->cls, MethodClass::PureNonAtomic);
}

TEST_F(MaskTest, MaskingChangesSemanticsOfIntendedNonAtomicity) {
  // Section 4.3 first case: if non-atomicity is intended, wrapping changes
  // semantics — demonstrated here: without the mask the partial progress of
  // batch_add survives the exception, with the mask it does not.
  auto& rt = weave::Runtime::instance();

  // Unmasked: partial progress persists after an injected failure.
  {
    weave::ScopedMode m(weave::Mode::Inject);
    rt.begin_run(0);
    synthetic::Account a;
    a.set(0);
    // Threshold: fire at the entry of the second add_once call.  Each
    // add_once entry costs one runtime-exception point, batch_add's own
    // entry costs one.
    rt.begin_run(3);
    EXPECT_THROW(a.batch_add({1, 2, 3}), fatomic::InjectedRuntimeError);
    EXPECT_EQ(a.value(), 1) << "first element applied, second injected";
  }

  // Masked: rollback erases the partial progress.
  {
    mask::MaskedScope scope(mask::wrap_pure(classification()));
    weave::ScopedMode m(weave::Mode::Inject);
    rt.begin_run(0);
    synthetic::Account a;
    a.set(0);
    rt.begin_run(3);
    EXPECT_THROW(a.batch_add({1, 2, 3}), fatomic::InjectedRuntimeError);
    EXPECT_EQ(a.value(), 0) << "masked batch_add must roll back";
  }
}
