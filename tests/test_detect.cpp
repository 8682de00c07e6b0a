#include "fatomic/detect/experiment.hpp"

#include <gtest/gtest.h>

#include "fatomic/detect/classify.hpp"
#include "testing/synthetic.hpp"

namespace detect = fatomic::detect;
using detect::MethodClass;

namespace {

class DetectTest : public ::testing::Test {
 protected:
  static const detect::Campaign& campaign() {
    static detect::Campaign c = [] {
      detect::Experiment exp(synthetic::workload);
      return exp.run();
    }();
    return c;
  }
  static const detect::Classification& classification() {
    static detect::Classification cls = detect::classify(campaign());
    return cls;
  }

  static MethodClass cls_of(const std::string& qualified) {
    const auto* r = classification().find(qualified);
    EXPECT_NE(r, nullptr) << qualified << " not classified";
    return r == nullptr ? MethodClass::Atomic : r->cls;
  }

  void TearDown() override {
    fatomic::weave::Runtime::instance().set_mode(fatomic::weave::Mode::Direct);
  }
};

}  // namespace

TEST_F(DetectTest, CampaignTerminates) {
  EXPECT_GT(campaign().runs.size(), 10u);
  EXPECT_GT(campaign().injections(), 10u);
}

TEST_F(DetectTest, EveryRecordedRunInjectedExactlyOneException) {
  for (const auto& run : campaign().runs) {
    EXPECT_NE(run.injected_method, nullptr);
    EXPECT_FALSE(run.injected_exception.empty());
  }
}

TEST_F(DetectTest, ThresholdsAreSequential) {
  const auto& runs = campaign().runs;
  for (std::size_t i = 0; i < runs.size(); ++i)
    EXPECT_EQ(runs[i].injection_point, i + 1);
}

TEST_F(DetectTest, CallCountsCoverAllMethods) {
  // 12 instance/ctor methods of Account are exercised by the workload.
  EXPECT_EQ(campaign().distinct_methods(), 12u);
  EXPECT_EQ(campaign().distinct_classes(), 1u);
  EXPECT_GT(campaign().total_calls(), 12u);
}

TEST_F(DetectTest, AtomicMethodsClassifiedAtomic) {
  EXPECT_EQ(cls_of("synthetic::Account::set"), MethodClass::Atomic);
  EXPECT_EQ(cls_of("synthetic::Account::helper"), MethodClass::Atomic);
  EXPECT_EQ(cls_of("synthetic::Account::atomic_update"), MethodClass::Atomic);
  EXPECT_EQ(cls_of("synthetic::Account::add_once"), MethodClass::Atomic);
  EXPECT_EQ(cls_of("synthetic::Account::safe_withdraw"), MethodClass::Atomic);
  EXPECT_EQ(cls_of("synthetic::Account::(ctor)"), MethodClass::Atomic);
}

TEST_F(DetectTest, MutateThenThrowIsPureNonAtomic) {
  EXPECT_EQ(cls_of("synthetic::Account::nonatomic_update"),
            MethodClass::PureNonAtomic);
  EXPECT_EQ(cls_of("synthetic::Account::sloppy_withdraw"),
            MethodClass::PureNonAtomic);
}

TEST_F(DetectTest, PartialLoopProgressIsPureNonAtomic) {
  EXPECT_EQ(cls_of("synthetic::Account::batch_add"),
            MethodClass::PureNonAtomic);
}

TEST_F(DetectTest, ArgumentMutationIsPureNonAtomic) {
  EXPECT_EQ(cls_of("synthetic::Account::transfer_all"),
            MethodClass::PureNonAtomic);
}

TEST_F(DetectTest, CallersOfNonAtomicAreConditional) {
  EXPECT_EQ(cls_of("synthetic::Account::calls_nonatomic"),
            MethodClass::ConditionalNonAtomic);
  EXPECT_EQ(cls_of("synthetic::Account::guarded_batch"),
            MethodClass::ConditionalNonAtomic);
}

TEST_F(DetectTest, ClassRollupIsPure) {
  ASSERT_EQ(classification().classes.size(), 1u);
  EXPECT_EQ(classification().classes[0].class_name, "synthetic::Account");
  EXPECT_EQ(classification().classes[0].cls, MethodClass::PureNonAtomic);
  EXPECT_EQ(classification().classes[0].methods, 12u);
}

TEST_F(DetectTest, CountersAreConsistent) {
  const auto& c = classification();
  EXPECT_EQ(c.count_methods(MethodClass::Atomic) +
                c.count_methods(MethodClass::ConditionalNonAtomic) +
                c.count_methods(MethodClass::PureNonAtomic),
            c.methods.size());
  EXPECT_EQ(c.pure_names().size(), c.count_methods(MethodClass::PureNonAtomic));
  EXPECT_EQ(c.nonatomic_names().size(),
            c.count_methods(MethodClass::PureNonAtomic) +
                c.count_methods(MethodClass::ConditionalNonAtomic));
}

TEST_F(DetectTest, NonAtomicMarksNeverOnAtomicMethods) {
  for (const auto& m : classification().methods) {
    if (m.cls == MethodClass::Atomic) {
      EXPECT_EQ(m.nonatomic_marks, 0u) << m.method->qualified_name();
    } else {
      EXPECT_GT(m.nonatomic_marks, 0u) << m.method->qualified_name();
    }
  }
}

TEST_F(DetectTest, ExceptionFreePolicyReclassifiesCallers) {
  // Declaring helper() exception-free discounts every run whose exception
  // was injected at helper's entry.  nonatomic_update mutates before calling
  // helper, and helper is its only fallible callee, so it becomes atomic —
  // exactly the paper's re-classification scenario (Section 4.3).
  detect::Policy policy;
  policy.exception_free.insert("synthetic::Account::helper");
  auto cls = detect::classify(campaign(), policy);
  const auto* r = cls.find("synthetic::Account::nonatomic_update");
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->cls, MethodClass::Atomic);
  // The real act-then-check bug does not depend on injections at all, so it
  // stays pure non-atomic.
  EXPECT_EQ(cls.find("synthetic::Account::sloppy_withdraw")->cls,
            MethodClass::PureNonAtomic);
}

TEST_F(DetectTest, ClassificationIsDeterministic) {
  detect::Experiment exp(synthetic::workload);
  auto second = detect::classify(exp.run());
  const auto& first = classification();
  ASSERT_EQ(second.methods.size(), first.methods.size());
  for (std::size_t i = 0; i < first.methods.size(); ++i) {
    EXPECT_EQ(first.methods[i].method, second.methods[i].method);
    EXPECT_EQ(first.methods[i].cls, second.methods[i].cls);
  }
}
