// Campaign-wide properties, parameterized over all 16 subject applications:
// the invariants that make the detection and masking phases sound must hold
// on every app, not just the synthetic fixture.
#include <gtest/gtest.h>

#include "fatomic/detect/callgraph.hpp"
#include "fatomic/detect/classify.hpp"
#include "fatomic/detect/experiment.hpp"
#include "fatomic/mask/masker.hpp"
#include "subjects/apps/apps.hpp"

namespace detect = fatomic::detect;
using detect::MethodClass;

namespace {

class CampaignProperty : public ::testing::TestWithParam<std::string> {
 protected:
  static const detect::Campaign& campaign(const std::string& name) {
    static std::map<std::string, detect::Campaign> cache;
    auto it = cache.find(name);
    if (it == cache.end()) {
      detect::Experiment exp(subjects::apps::app(name).program);
      it = cache.emplace(name, exp.run()).first;
    }
    return it->second;
  }

  void TearDown() override {
    fatomic::weave::Runtime::instance().set_mode(fatomic::weave::Mode::Direct);
    fatomic::weave::Runtime::instance().set_wrap_predicate(nullptr);
  }
};

std::vector<std::string> app_names() {
  std::vector<std::string> names;
  for (const auto& app : subjects::apps::all_apps()) names.push_back(app.name);
  return names;
}

}  // namespace

TEST_P(CampaignProperty, EveryRecordedRunInjects) {
  const auto& c = campaign(GetParam());
  ASSERT_FALSE(c.runs.empty());
  for (const auto& run : c.runs) {
    EXPECT_NE(run.injected_method, nullptr);
  }
  EXPECT_EQ(c.injections(), c.runs.size());
}

TEST_P(CampaignProperty, MarksDescendWithinEpisodes) {
  // Within one exception-propagation episode the wrapper depths strictly
  // decrease (callee before caller) — the property Definition 3's
  // first-marked rule relies on.
  for (const auto& run : campaign(GetParam()).runs) {
    int prev = INT_MAX;
    for (const auto& mark : run.marks) {
      if (mark.depth >= prev) prev = INT_MAX;  // new episode
      EXPECT_LT(mark.depth, prev);
      prev = mark.depth;
    }
  }
}

TEST_P(CampaignProperty, ClassificationConsistentWithMarks) {
  auto cls = detect::classify(campaign(GetParam()));
  for (const auto& m : cls.methods) {
    if (m.cls == MethodClass::Atomic)
      EXPECT_EQ(m.nonatomic_marks, 0u) << m.method->qualified_name();
    else
      EXPECT_GT(m.nonatomic_marks, 0u) << m.method->qualified_name();
  }
}

TEST_P(CampaignProperty, ClassRollupConsistent) {
  auto cls = detect::classify(campaign(GetParam()));
  for (const auto& c : cls.classes) {
    MethodClass worst = MethodClass::Atomic;
    std::size_t members = 0;
    for (const auto& m : cls.methods) {
      if (m.method->class_name() != c.class_name) continue;
      ++members;
      worst = std::max(worst, m.cls);
    }
    EXPECT_EQ(c.methods, members) << c.class_name;
    EXPECT_EQ(c.cls, worst) << c.class_name;
  }
}

TEST_P(CampaignProperty, CampaignIsDeterministic) {
  const auto& c = campaign(GetParam());
  detect::Experiment exp(subjects::apps::app(GetParam()).program);
  auto again = exp.run();
  ASSERT_EQ(again.runs.size(), c.runs.size());
  for (std::size_t i = 0; i < c.runs.size(); ++i) {
    EXPECT_EQ(again.runs[i].injected_method, c.runs[i].injected_method);
    EXPECT_EQ(again.runs[i].injected_exception, c.runs[i].injected_exception);
    EXPECT_EQ(again.runs[i].marks.size(), c.runs[i].marks.size());
  }
  ASSERT_EQ(again.calls.size(), c.calls.size());
  for (std::size_t k = 0; k < c.calls.size(); ++k) {
    EXPECT_EQ(again.calls[k].method, c.calls[k].method) << "call " << k;
    EXPECT_EQ(again.calls[k].parent, c.calls[k].parent) << "call " << k;
    EXPECT_EQ(again.calls[k].bound, c.calls[k].bound) << "call " << k;
  }
}

TEST_P(CampaignProperty, CallGraphCoversAllCalledMethods) {
  const auto& c = campaign(GetParam());
  auto graph = detect::CallGraph::from(c);
  // Every called method appears as a callee of someone.
  for (const fatomic::weave::BaselineCall& call : c.calls)
    EXPECT_FALSE(graph.callers_of(call.method->qualified_name()).empty())
        << call.method->qualified_name();
  // Edge counts sum to the total number of calls.
  std::uint64_t edge_sum = 0;
  for (const auto& [caller, callees] : graph.edges())
    for (const auto& [callee, count] : callees) edge_sum += count;
  EXPECT_EQ(edge_sum, c.total_calls());
}

TEST_P(CampaignProperty, MaskingPureMethodsRepairsEveryApp) {
  // The paper's end-to-end claim, checked on all 16 applications.
  auto cls = detect::classify(campaign(GetParam()));
  fatomic::Config cfg;
  cfg.mask(fatomic::mask::wrap_pure(cls));
  auto verified = fatomic::mask::verify_masked_full(
      subjects::apps::app(GetParam()).program, cfg);
  EXPECT_TRUE(verified.classification.nonatomic_names().empty())
      << GetParam() << ": " << ::testing::PrintToString(
             verified.classification.nonatomic_names());
}

TEST_P(CampaignProperty, SuggestedPoliciesNeverIncreaseNonAtomicity) {
  const auto& c = campaign(GetParam());
  auto before = detect::classify(c);
  detect::Policy policy;
  for (const auto& site : detect::suggest_exception_free(c))
    policy.exception_free.insert(site);
  auto after = detect::classify(c, policy);
  EXPECT_LE(after.nonatomic_names().size(), before.nonatomic_names().size());
}

INSTANTIATE_TEST_SUITE_P(AllApps, CampaignProperty,
                         ::testing::ValuesIn(app_names()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });
