// The injected exception set: the paper injects declared exceptions
// E_1..E_k plus generic runtime exceptions E_{k+1}..E_n (Section 4.1); the
// runtime set is the constant weave::kRuntimeExceptions.
#include <gtest/gtest.h>

#include "fatomic/common/error.hpp"
#include "fatomic/weave/macros.hpp"
#include "testing/synthetic.hpp"

namespace weave = fatomic::weave;
using synthetic::Account;
using weave::Mode;
using weave::Runtime;

namespace {

class ExceptionSpecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Runtime::instance().set_mode(Mode::Direct);
    Runtime::instance().begin_run(0);
  }
  void TearDown() override { Runtime::instance().set_mode(Mode::Direct); }
};

}  // namespace

TEST_F(ExceptionSpecTest, DefaultRuntimeExceptionIsInjected) {
  ASSERT_EQ(weave::kRuntimeExceptions.size(), 1u);
  EXPECT_EQ(weave::kRuntimeExceptions[0].type_name,
            "fatomic::InjectedRuntimeError");
  EXPECT_THROW(weave::kRuntimeExceptions[0].raise(),
               fatomic::InjectedRuntimeError);
}

TEST_F(ExceptionSpecTest, DeclaredExceptionsPrecedeRuntimeOnes) {
  auto& rt = Runtime::instance();
  weave::ScopedMode m(Mode::Inject);
  Account a;
  rt.begin_run(1);
  EXPECT_THROW(a.safe_withdraw(0), synthetic::BankError)
      << "first point of a declaring method is its declared exception";
  rt.begin_run(2);
  EXPECT_THROW(a.safe_withdraw(0), fatomic::InjectedRuntimeError);
}
