// Coverage of the wrapper engine's dispatch corners: return-value handling,
// const receivers, static methods, nested mode interactions and statistics.
#include <gtest/gtest.h>

#include <string>

#include "fatomic/common/error.hpp"
#include "fatomic/weave/macros.hpp"
#include "fatomic/weave/invoke.hpp"

namespace weave = fatomic::weave;
using weave::Mode;
using weave::Runtime;

namespace {

class Widget {
 public:
  Widget() { FAT_CTOR_ENTRY(); }

  /// Returns by value.
  std::string label() {
    return FAT_INVOKE(label, [&] { return label_; });
  }
  /// Returns a reference into the receiver.
  std::string& label_ref() {
    return FAT_INVOKE(label_ref, [&]() -> std::string& { return label_; });
  }
  /// Void return.
  void set_label(const std::string& s) {
    FAT_INVOKE(set_label, [&] { label_ = s; });
  }
  /// Const receiver: instrumented but never rolled back.
  int tally() const {
    return FAT_INVOKE(tally, [&] { return tally_; });
  }
  /// Move-only return value.
  std::unique_ptr<int> boxed() {
    return FAT_INVOKE(boxed, [&] { return std::make_unique<int>(tally_); });
  }
  void bump() {
    FAT_INVOKE(bump, [&] { ++tally_; });
  }

  static int answer() {
    return FAT_INVOKE_STATIC(answer, [] { return 42; });
  }

 private:
  FAT_REFLECT_FRIEND(Widget);
  FAT_CTOR_INFO(Widget);
  FAT_METHOD_INFO(Widget, label);
  FAT_METHOD_INFO(Widget, label_ref);
  FAT_METHOD_INFO(Widget, set_label);
  FAT_METHOD_INFO(Widget, tally);
  FAT_METHOD_INFO(Widget, boxed);
  FAT_METHOD_INFO(Widget, bump);
  FAT_STATIC_INFO(Widget, answer);

  std::string label_ = "w";
  int tally_ = 0;
};

class InvokeModesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto& rt = Runtime::instance();
    rt.set_mode(Mode::Direct);
    rt.set_wrap_predicate(nullptr);
    rt.reset_counts();
    rt.begin_run(0);
    rt.stats = {};
  }
  void TearDown() override {
    Runtime::instance().set_mode(Mode::Direct);
    Runtime::instance().set_wrap_predicate(nullptr);
  }
};

}  // namespace

FAT_REFLECT(Widget, FAT_FIELD(Widget, label_), FAT_FIELD(Widget, tally_));

TEST_F(InvokeModesTest, ValueReturnsWorkInEveryMode) {
  Widget w;
  for (Mode m : {Mode::Direct, Mode::Count, Mode::Inject, Mode::Mask}) {
    weave::ScopedMode scope(m);
    Runtime::instance().begin_run(0);
    EXPECT_EQ(w.label(), "w");
    EXPECT_EQ(Widget::answer(), 42);
  }
}

TEST_F(InvokeModesTest, ReferenceReturnsPreserveIdentity) {
  Widget w;
  for (Mode m : {Mode::Direct, Mode::Count, Mode::Inject}) {
    weave::ScopedMode scope(m);
    Runtime::instance().begin_run(0);
    std::string& ref = w.label_ref();
    ref = "renamed";
    EXPECT_EQ(w.label(), "renamed");
    w.set_label("w");
  }
}

TEST_F(InvokeModesTest, MoveOnlyReturns) {
  Widget w;
  w.bump();
  for (Mode m : {Mode::Direct, Mode::Inject, Mode::Mask}) {
    weave::ScopedMode scope(m);
    Runtime::instance().begin_run(0);
    auto p = w.boxed();
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(*p, 1);
  }
}

TEST_F(InvokeModesTest, ConstReceiverObservedButNeverMasked) {
  auto& rt = Runtime::instance();
  rt.set_wrap_predicate([](const weave::MethodInfo&) { return true; });
  const Widget w;
  weave::ScopedMode scope(Mode::Mask);
  EXPECT_EQ(w.tally(), 0);  // compiles + runs through the const path
  EXPECT_EQ(rt.stats.rollbacks, 0u);
}

TEST_F(InvokeModesTest, StaticMethodsHaveNoReceiverSnapshot) {
  auto& rt = Runtime::instance();
  weave::ScopedMode scope(Mode::Inject);
  rt.begin_run(1000000);
  rt.stats = {};
  EXPECT_EQ(Widget::answer(), 42);
  EXPECT_EQ(rt.stats.snapshots_taken, 0u);
}

TEST_F(InvokeModesTest, StaticInjectionPointsFire) {
  auto& rt = Runtime::instance();
  weave::ScopedMode scope(Mode::Inject);
  rt.begin_run(1);
  EXPECT_THROW(Widget::answer(), fatomic::InjectedRuntimeError);
  ASSERT_NE(rt.injected_method, nullptr);
  EXPECT_EQ(rt.injected_method->qualified_name(), "Widget::answer");
}

TEST_F(InvokeModesTest, ConstructorInjectionTestsTheCaller) {
  auto& rt = Runtime::instance();
  weave::ScopedMode scope(Mode::Inject);
  rt.begin_run(1);
  EXPECT_THROW(Widget{}, fatomic::InjectedRuntimeError);
  EXPECT_EQ(rt.injected_method->method_name(), "(ctor)");
}

TEST_F(InvokeModesTest, CountModeTracksStaticsAndCtors) {
  weave::ScopedMode scope(Mode::Count);
  Widget w;
  Widget::answer();
  Widget::answer();
  auto& reg = weave::MethodRegistry::instance();
  const weave::CallTable& calls = Runtime::instance().calls;
  ASSERT_EQ(calls.size(), 3u);
  EXPECT_EQ(calls[0].method, reg.find("Widget::(ctor)"));
  EXPECT_EQ(calls[1].method, reg.find("Widget::answer"));
  EXPECT_EQ(calls[2].method, reg.find("Widget::answer"));
}

TEST_F(InvokeModesTest, MaskPredicateConsultedPerCall) {
  auto& rt = Runtime::instance();
  int consults = 0;
  rt.set_wrap_predicate([&consults](const weave::MethodInfo&) {
    ++consults;
    return false;
  });
  weave::ScopedMode scope(Mode::Mask);
  Widget w;
  w.bump();
  w.bump();
  EXPECT_GE(consults, 2);
  EXPECT_EQ(rt.stats.wrapped_calls, 0u);
}

TEST_F(InvokeModesTest, WrappedCallsCounted) {
  auto& rt = Runtime::instance();
  rt.set_wrap_predicate([](const weave::MethodInfo& mi) {
    return mi.method_name() == "bump";
  });
  weave::ScopedMode scope(Mode::Mask);
  Widget w;
  w.bump();
  w.bump();
  w.set_label("x");  // unwrapped
  EXPECT_EQ(rt.stats.wrapped_calls, 2u);
  EXPECT_EQ(rt.stats.snapshots_taken, 2u);
}

TEST_F(InvokeModesTest, WrappedStaticCallsCounted) {
  auto& rt = Runtime::instance();
  rt.set_wrap_predicate([](const weave::MethodInfo& mi) {
    return mi.method_name() == "answer";
  });
  weave::ScopedMode scope(Mode::Mask);
  EXPECT_EQ(Widget::answer(), 42);
  EXPECT_EQ(Widget::answer(), 42);
  EXPECT_EQ(rt.stats.wrapped_calls, 2u)
      << "statics selected by the predicate count as wrapped calls";
  EXPECT_EQ(rt.stats.snapshots_taken, 0u) << "but nothing to checkpoint";
}

TEST_F(InvokeModesTest, UnwrappedStaticCallsNotCounted) {
  auto& rt = Runtime::instance();
  rt.set_wrap_predicate([](const weave::MethodInfo&) { return false; });
  weave::ScopedMode scope(Mode::Mask);
  EXPECT_EQ(Widget::answer(), 42);
  EXPECT_EQ(rt.stats.wrapped_calls, 0u);
}

TEST_F(InvokeModesTest, RuntimesAreThreadLocal) {
  auto& rt = Runtime::instance();
  weave::ScopedMode scope(Mode::Inject);
  rt.begin_run(1);
  // Another runtime installed on this thread shadows the default...
  {
    Runtime isolated;
    isolated.adopt_config(rt);
    weave::ScopedRuntime install(isolated);
    EXPECT_EQ(&Runtime::instance(), &isolated);
    EXPECT_EQ(Runtime::instance().mode(), Mode::Inject) << "config adopted";
    Runtime::instance().begin_run(1000000);
    EXPECT_EQ(Widget::answer(), 42) << "isolated threshold, no injection";
  }
  // ...and the original state is untouched once the scope ends.
  EXPECT_EQ(&Runtime::instance(), &rt);
  EXPECT_THROW(Widget::answer(), fatomic::InjectedRuntimeError);
}

TEST_F(InvokeModesTest, DepthReturnsToZeroAfterEscapedException) {
  auto& rt = Runtime::instance();
  weave::ScopedMode scope(Mode::Inject);
  Widget w;
  rt.begin_run(2);  // fire inside the second call
  w.bump();
  try {
    w.bump();
  } catch (const fatomic::InjectedRuntimeError&) {
  }
  EXPECT_EQ(rt.depth, 0) << "depth guard must unwind with the exception";
}

TEST_F(InvokeModesTest, InjectionExhaustionLeavesStateConsistent) {
  auto& rt = Runtime::instance();
  weave::ScopedMode scope(Mode::Inject);
  Widget w;
  rt.begin_run(100);
  w.bump();
  w.set_label("z");
  EXPECT_EQ(rt.injected_method, nullptr);
  EXPECT_LT(rt.point, 100u);
  EXPECT_EQ(w.label(), "z");
}
