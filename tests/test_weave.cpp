#include "fatomic/weave/invoke.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "fatomic/common/error.hpp"
#include "fatomic/weave/macros.hpp"
#include "testing/synthetic.hpp"

namespace weave = fatomic::weave;
using synthetic::Account;
using weave::Mode;
using weave::Runtime;

namespace {

class WeaveTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto& rt = Runtime::instance();
    rt.set_mode(Mode::Direct);
    rt.set_wrap_predicate(nullptr);
    rt.reset_counts();
    rt.stats = {};
    rt.begin_run(0);  // threshold 0: counter never matches
  }
  void TearDown() override {
    Runtime::instance().set_mode(Mode::Direct);
    Runtime::instance().set_wrap_predicate(nullptr);
  }
};

}  // namespace

TEST_F(WeaveTest, DirectModePassesThrough) {
  Account a;
  a.set(5);
  EXPECT_EQ(a.value(), 5);
  EXPECT_TRUE(Runtime::instance().marks.empty());
  EXPECT_TRUE(Runtime::instance().calls.empty());
}

TEST_F(WeaveTest, CountModeCountsEachCall) {
  weave::ScopedMode m(Mode::Count);
  Account a;
  a.set(1);
  a.set(2);
  a.helper();
  const weave::CallTable& calls = Runtime::instance().calls;
  const auto count = [&](const weave::MethodInfo* mi) {
    return std::count_if(
        calls.begin(), calls.end(),
        [mi](const weave::BaselineCall& call) { return call.method == mi; });
  };
  const auto* set_mi = weave::MethodRegistry::instance().find("synthetic::Account::set");
  const auto* helper_mi =
      weave::MethodRegistry::instance().find("synthetic::Account::helper");
  const auto* ctor_mi =
      weave::MethodRegistry::instance().find("synthetic::Account::(ctor)");
  ASSERT_NE(set_mi, nullptr);
  ASSERT_NE(helper_mi, nullptr);
  ASSERT_NE(ctor_mi, nullptr);
  EXPECT_EQ(count(set_mi), 2);
  EXPECT_EQ(count(helper_mi), 1);
  EXPECT_EQ(count(ctor_mi), 1);
  EXPECT_EQ(calls.size(), 4u);
}

TEST_F(WeaveTest, InjectionFiresAtThreshold) {
  auto& rt = Runtime::instance();
  weave::ScopedMode m(Mode::Inject);
  Account a;  // ctor consumes injection points
  // Find how many points one set() call consumes by exhausting thresholds.
  rt.begin_run(1000000);  // will not fire
  a.set(1);
  const std::uint64_t points_per_iteration = rt.point;
  EXPECT_GT(points_per_iteration, 0u);

  rt.begin_run(points_per_iteration);  // fire at set()'s last point
  EXPECT_THROW(a.set(2), fatomic::InjectedRuntimeError);
  ASSERT_NE(rt.injected_method, nullptr);
  EXPECT_EQ(rt.injected_method->qualified_name(), "synthetic::Account::set");
}

TEST_F(WeaveTest, DeclaredExceptionsInjectedBeforeRuntimeOnes) {
  auto& rt = Runtime::instance();
  weave::ScopedMode m(Mode::Inject);
  Account a;
  rt.begin_run(1);  // first point of the next call
  EXPECT_THROW(a.nonatomic_update(1), synthetic::BankError);
  EXPECT_EQ(rt.injected_exception, "synthetic::BankError");

  rt.begin_run(2);  // second point: the generic runtime exception
  EXPECT_THROW(a.nonatomic_update(1), fatomic::InjectedRuntimeError);
  EXPECT_EQ(rt.injected_exception, "fatomic::InjectedRuntimeError");
}

TEST_F(WeaveTest, NoInjectionWhenThresholdNeverReached) {
  auto& rt = Runtime::instance();
  weave::ScopedMode m(Mode::Inject);
  Account a;
  rt.begin_run(100000);
  a.set(1);
  a.helper();
  EXPECT_EQ(rt.injected_method, nullptr);
  EXPECT_LT(rt.point, 100000u);
  EXPECT_EQ(a.value(), 1);
}

TEST_F(WeaveTest, MarksRecordedCalleeFirst) {
  auto& rt = Runtime::instance();
  weave::ScopedMode m(Mode::Inject);
  Account a;
  // Fire inside helper() nested in nonatomic_update() nested in
  // calls_nonatomic(): find the right threshold by scanning.
  bool found = false;
  for (std::uint64_t t = 1; t < 100 && !found; ++t) {
    Account fresh;
    rt.begin_run(t);
    try {
      fresh.calls_nonatomic(9);
    } catch (...) {
    }
    if (rt.marks.size() >= 2) {
      EXPECT_EQ(rt.marks[0].method->method_name(), "nonatomic_update");
      EXPECT_FALSE(rt.marks[0].atomic);
      EXPECT_EQ(rt.marks[1].method->method_name(), "calls_nonatomic");
      EXPECT_FALSE(rt.marks[1].atomic);
      found = true;
    }
  }
  EXPECT_TRUE(found) << "expected a run with callee-first non-atomic marks";
}

TEST_F(WeaveTest, AtomicMethodMarkedAtomicOnInjection) {
  auto& rt = Runtime::instance();
  weave::ScopedMode m(Mode::Inject);
  bool found = false;
  for (std::uint64_t t = 1; t < 100 && !found; ++t) {
    Account fresh;
    rt.begin_run(t);
    try {
      fresh.atomic_update(5);
    } catch (...) {
    }
    for (const auto& mark : rt.marks) {
      if (mark.method->method_name() == "atomic_update") {
        EXPECT_TRUE(mark.atomic);
        found = true;
      }
    }
  }
  EXPECT_TRUE(found) << "expected atomic_update to be marked (atomically)";
}

TEST_F(WeaveTest, RealExceptionsAreObservedToo) {
  auto& rt = Runtime::instance();
  weave::ScopedMode m(Mode::Inject);
  Account a;
  rt.begin_run(1000000);  // no injection: only the real bug fires
  a.set(10);
  EXPECT_THROW(a.sloppy_withdraw(100), synthetic::BankError);
  ASSERT_EQ(rt.marks.size(), 1u);
  EXPECT_EQ(rt.marks[0].method->method_name(), "sloppy_withdraw");
  EXPECT_FALSE(rt.marks[0].atomic);
}

TEST_F(WeaveTest, CheckThenActObservedAtomic) {
  auto& rt = Runtime::instance();
  weave::ScopedMode m(Mode::Inject);
  Account a;
  rt.begin_run(1000000);
  a.set(10);
  EXPECT_THROW(a.safe_withdraw(100), synthetic::BankError);
  ASSERT_EQ(rt.marks.size(), 1u);
  EXPECT_EQ(rt.marks[0].method->method_name(), "safe_withdraw");
  EXPECT_TRUE(rt.marks[0].atomic);
}

TEST_F(WeaveTest, MaskModeRollsBackOnException) {
  auto& rt = Runtime::instance();
  rt.set_wrap_predicate([](const weave::MethodInfo& mi) {
    return mi.method_name() == "sloppy_withdraw";
  });
  weave::ScopedMode m(Mode::Mask);
  Account a;
  a.set(10);
  EXPECT_THROW(a.sloppy_withdraw(100), synthetic::BankError);
  EXPECT_EQ(a.value(), 10) << "masking must restore the pre-call state";
  EXPECT_EQ(rt.stats.rollbacks, 1u);
}

TEST_F(WeaveTest, MaskModeLeavesUnwrappedMethodsAlone) {
  auto& rt = Runtime::instance();
  rt.set_wrap_predicate([](const weave::MethodInfo&) { return false; });
  weave::ScopedMode m(Mode::Mask);
  Account a;
  a.set(10);
  EXPECT_THROW(a.sloppy_withdraw(100), synthetic::BankError);
  EXPECT_EQ(a.value(), -90) << "unwrapped method keeps its buggy behaviour";
}

TEST_F(WeaveTest, MaskDoesNotInterfereOnSuccess) {
  auto& rt = Runtime::instance();
  rt.set_wrap_predicate([](const weave::MethodInfo&) { return true; });
  weave::ScopedMode m(Mode::Mask);
  Account a;
  a.set(10);
  a.add_once(5);
  EXPECT_EQ(a.value(), 15);
  EXPECT_EQ(rt.stats.rollbacks, 0u);
}

TEST_F(WeaveTest, MaskedArgumentsRestoredToo) {
  auto& rt = Runtime::instance();
  rt.set_wrap_predicate([](const weave::MethodInfo& mi) {
    return mi.method_name() == "transfer_all";
  });
  // Arrange an injection mid-transfer: Inject mode with a predicate
  // installed nests the atomicity wrapper.
  weave::ScopedMode m(Mode::Inject);
  bool exercised = false;
  for (std::uint64_t t = 1; t < 200; ++t) {
    Account a, b;
    rt.begin_run(0);
    a.set(20);
    b.set(7);
    rt.begin_run(t);
    try {
      a.transfer_all(b);
      break;  // no injection fired within transfer_all: campaign exhausted
    } catch (...) {
      if (b.value() != 7 || a.value() != 20) {
        ADD_FAILURE() << "masking failed to roll back receiver + argument at "
                      << "threshold " << t << ": a=" << a.value()
                      << " b=" << b.value();
      }
      exercised = true;
    }
  }
  EXPECT_TRUE(exercised);
}

TEST_F(WeaveTest, ScopedModeRestores) {
  auto& rt = Runtime::instance();
  rt.set_mode(Mode::Count);
  {
    weave::ScopedMode m(Mode::Inject);
    EXPECT_EQ(rt.mode(), Mode::Inject);
  }
  EXPECT_EQ(rt.mode(), Mode::Count);
}

TEST_F(WeaveTest, RegistryFindsQualifiedNames) {
  Account a;  // ensure statics are constructed
  a.set(1);
  auto& reg = weave::MethodRegistry::instance();
  EXPECT_NE(reg.find("synthetic::Account::set"), nullptr);
  EXPECT_EQ(reg.find("synthetic::Account::no_such"), nullptr);
  const auto* mi = reg.find("synthetic::Account::(ctor)");
  ASSERT_NE(mi, nullptr);
  EXPECT_EQ(mi->kind(), weave::MethodKind::Constructor);
  EXPECT_FALSE(mi->has_receiver());
}

TEST_F(WeaveTest, StatsCountSnapshotsAndComparisons) {
  auto& rt = Runtime::instance();
  rt.stats = {};
  weave::ScopedMode m(Mode::Inject);
  Account a;
  rt.begin_run(1000000);
  a.set(1);
  EXPECT_GE(rt.stats.snapshots_taken, 1u);
  a.set(10);
  EXPECT_THROW(a.sloppy_withdraw(100), synthetic::BankError);
  EXPECT_GE(rt.stats.comparisons, 1u);
}

namespace name_probe {
struct Oops : std::exception {};
template <class T>
struct Boxed : std::exception {};
}  // namespace name_probe

namespace {

/// The demangled name of `ex`'s type as seen from inside its catch block.
template <class E>
std::string caught_name(const E& ex) {
  try {
    throw ex;
  } catch (...) {
    return weave::current_exception_type_name();
  }
}

}  // namespace

TEST(ExceptionName, NamespacedAndTemplatedTypesDemangleTheSameEveryTime) {
  // The second call of each is answered from the thread's memo.
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(caught_name(name_probe::Oops{}), "name_probe::Oops");
    EXPECT_EQ(caught_name(name_probe::Boxed<int>{}), "name_probe::Boxed<int>");
  }
  EXPECT_EQ(weave::current_exception_type_name(), "")
      << "outside a handler there is no exception";
}
