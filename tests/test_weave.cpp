#include "fatomic/weave/invoke.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "fatomic/common/error.hpp"
#include "fatomic/detect/experiment.hpp"
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

// ---- the exception an injection wrapper names ----------------------------
//
// A wrapper observes an exception from its frame's destructor, where no
// handler can name it, so the raise interposers record the type of every
// exception in flight by its uncaught level (unwind::in_flight_type).  Each
// probe below leaves its body by one raise while another exception has come
// and gone, and every wrapper the raise crosses must name the raised one.

namespace in_flight {

struct E : std::exception {};
struct F : std::exception {};
struct G : std::exception {};

/// Throws and catches F when destroyed: during E's unwinding, F is raised
/// one uncaught level above E.
struct CatchesF {
  ~CatchesF() {
    try {
      throw F();
    } catch (const F&) {
    }
  }
};

class Probe {
 public:
  /// Calls `probe` through a second wrapper, so two marks name its raise.
  void outer(void (Probe::*probe)()) {
    FAT_INVOKE(outer, [&] {
      ++calls_;
      (this->*probe)();
    });
  }

  /// A handler catches E, throws and catches F, then runs `throw;`: the
  /// __cxa_rethrow interposer names E again.
  void rethrow_after_other() {
    FAT_INVOKE(rethrow_after_other, [&] {
      try {
        throw E();
      } catch (const E&) {
        try {
          throw F();
        } catch (const F&) {
        }
        throw;
      }
    });
  }
  /// E is saved, F is thrown and caught, then E is raised from the saved
  /// pointer: the std::rethrow_exception interposer names E again.
  void rethrow_saved() {
    FAT_INVOKE(rethrow_saved, [&] {
      std::exception_ptr saved;
      try {
        throw E();
      } catch (const E&) {
        saved = std::current_exception();
      }
      try {
        throw F();
      } catch (const F&) {
      }
      std::rethrow_exception(saved);
    });
  }
  /// E unwinds a destructor that throws and catches F: F's record sits one
  /// level above E's and leaves it as it was.
  void throw_past_destructor() {
    FAT_INVOKE(throw_past_destructor, [&] {
      CatchesF guard;
      throw E();
    });
  }
  /// E is thrown and caught, then libstdc++ raises std::out_of_range from
  /// its own code, whose call to __cxa_throw goes through the dynamic
  /// linker and so reaches the interposer too.
  void throw_from_library() {
    FAT_INVOKE(throw_from_library, [&] {
      try {
        throw E();
      } catch (const E&) {
      }
      (void)std::vector<int>{}.at(1);
    });
  }
  /// A handler catches E and throws G in its place.
  void translate() {
    FAT_INVOKE(translate, [&] {
      try {
        throw E();
      } catch (const E&) {
        throw G();
      }
    });
  }

 private:
  FAT_REFLECT_FRIEND(Probe);
  FAT_METHOD_INFO(in_flight::Probe, outer);
  FAT_METHOD_INFO(in_flight::Probe, rethrow_after_other);
  FAT_METHOD_INFO(in_flight::Probe, rethrow_saved);
  FAT_METHOD_INFO(in_flight::Probe, throw_past_destructor);
  FAT_METHOD_INFO(in_flight::Probe, throw_from_library);
  FAT_METHOD_INFO(in_flight::Probe, translate);

  int calls_ = 0;
};

/// The exception types named by the marks of one uninjected Inject-mode call
/// of `probe` through Probe::outer, callee first.
std::vector<std::string> marked_types(void (Probe::*probe)()) {
  auto& rt = Runtime::instance();
  weave::ScopedMode m(Mode::Inject);
  Probe p;
  rt.begin_run(1000000);  // nothing is injected: only the probe raises
  try {
    p.outer(probe);
    ADD_FAILURE() << "the probe must raise";
  } catch (...) {
  }
  std::vector<std::string> types;
  for (const weave::Mark& mark : rt.marks) types.push_back(mark.exception_type);
  return types;
}

const std::vector<std::string> kTwiceE = {"in_flight::E", "in_flight::E"};

}  // namespace in_flight

FAT_REFLECT(in_flight::Probe, FAT_FIELD(in_flight::Probe, calls_));

TEST_F(WeaveTest, RethrowInHandlerNamesTheCaughtException) {
  EXPECT_EQ(in_flight::marked_types(&in_flight::Probe::rethrow_after_other),
            in_flight::kTwiceE);
}

TEST_F(WeaveTest, RethrowOfSavedExceptionNamesIt) {
  EXPECT_EQ(in_flight::marked_types(&in_flight::Probe::rethrow_saved),
            in_flight::kTwiceE);
}

TEST_F(WeaveTest, ExceptionCaughtInUnwoundDestructorDoesNotRename) {
  EXPECT_EQ(in_flight::marked_types(&in_flight::Probe::throw_past_destructor),
            in_flight::kTwiceE);
}

TEST_F(WeaveTest, ExceptionRaisedInsideLibstdcxxIsNamed) {
  EXPECT_EQ(in_flight::marked_types(&in_flight::Probe::throw_from_library),
            (std::vector<std::string>{"std::out_of_range",
                                      "std::out_of_range"}));
}

TEST_F(WeaveTest, TranslatedExceptionNamesTheNewOne) {
  EXPECT_EQ(in_flight::marked_types(&in_flight::Probe::translate),
            (std::vector<std::string>{"in_flight::G", "in_flight::G"}));
}

// ---- an observation that fails during unwinding ----------------------------

namespace unregistered {

/// Reflected nowhere: a pointee of a type derived from it that no FAT_POLY
/// registers cannot be captured.
struct Shape {
  virtual ~Shape() = default;
};
struct Circle : Shape {};

class Holder {
 public:
  /// Installs a pointee the after-capture cannot walk, then throws.
  void install_then_throw() {
    FAT_INVOKE(install_then_throw, [&] {
      shape_ = std::make_unique<Circle>();
      throw std::runtime_error("thrown after the install");
    });
  }

 private:
  FAT_REFLECT_FRIEND(Holder);
  FAT_METHOD_INFO(unregistered::Holder, install_then_throw);

  std::unique_ptr<Shape> shape_;
};

/// A caller whose own receiver captures fine.
class Caller {
 public:
  void call(Holder& holder) {
    FAT_INVOKE(call, [&] {
      ++calls_;
      holder.install_then_throw();
    });
  }

 private:
  FAT_REFLECT_FRIEND(Caller);
  FAT_METHOD_INFO(unregistered::Caller, call);

  int calls_ = 0;
};

void program() {
  Holder holder;
  Caller caller;
  caller.call(holder);
}

}  // namespace unregistered

FAT_REFLECT(unregistered::Holder, FAT_FIELD(unregistered::Holder, shape_));
FAT_REFLECT(unregistered::Caller, FAT_FIELD(unregistered::Caller, calls_));

// The Holder's after-capture throws SnapshotError while the runtime_error
// unwinds its wrapper.  Nothing reaches std::terminate: the run escapes with
// the SnapshotError's message, as it did when the wrapper caught the
// runtime_error and the failed capture replaced it, while the Caller's
// wrapper, above the failed one, marks the runtime_error itself.
TEST(ObservationFailure, FailedAfterCaptureEscapesTheRunWithoutTerminate) {
  const fatomic::detect::Campaign c =
      fatomic::detect::Experiment(unregistered::program).run();
  std::size_t failed = 0;
  for (const fatomic::detect::RunRecord& run : c.runs) {
    if (run.escape_what.find("unregistered polymorphic pointee") ==
        std::string::npos)
      continue;
    ++failed;
    EXPECT_TRUE(run.escaped);
    ASSERT_EQ(run.marks.size(), 1u) << "the failed wrapper marks nothing";
    EXPECT_EQ(run.marks[0].method->qualified_name(),
              "unregistered::Caller::call");
    EXPECT_EQ(run.marks[0].exception_type, "std::runtime_error");
  }
  EXPECT_GT(failed, 0u) << "no run reached the body's throw";
}
