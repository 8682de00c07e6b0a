// Pass 4 (analyze/callgraph_static): scanner edge cases the static graph
// depends on (function-try-blocks, multi-catch, rethrow, qualified unnamed
// handlers, nested template arguments), the catch-aware may-propagate sets,
// the static lint that closes the dynamic graph's coverage blind spot, the
// graph-check soundness harness, the effect pass's summary lattice, and the
// precision gains context sensitivity buys over the retired pre-Pass-4
// analysis.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "fatomic/analyze/callgraph_static.hpp"
#include "fatomic/analyze/effects.hpp"
#include "fatomic/analyze/exception_flow.hpp"
#include "fatomic/analyze/source_model.hpp"
#include "fatomic/analyze/static_report.hpp"
#include "fatomic/report/json.hpp"
#include "subjects/apps/apps.hpp"

namespace analyze = fatomic::analyze;
namespace detect = fatomic::detect;
namespace fs = std::filesystem;

namespace {

const std::string kSubjectRoot = std::string(FATOMIC_SOURCE_DIR) + "/subjects";

const analyze::StaticReport& static_report() {
  static const analyze::StaticReport report =
      analyze::analyze_sources(kSubjectRoot);
  return report;
}

/// Writes a synthetic subject tree into a fresh temp directory and scans it.
/// The scanner works on macro *tokens*, so the files never need to compile.
class ScannerEdgeCases : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::path(::testing::TempDir()) /
            ("fatomic_pass4_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name()));
    fs::create_directories(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  void write(const std::string& name, const std::string& text) {
    std::ofstream out(root_ / name);
    out << text;
  }

  analyze::SourceModel scan() { return analyze::scan_sources(root_.string()); }

  fs::path root_;
};

const char* kEdgeHeader = R"(
#pragma once
namespace edge {
class AError {};
class BError {};
class CError {};
class Demo {
 public:
  void multi();
  void relay();
  void guarded();
 private:
  FAT_METHOD_INFO(edge::Demo, multi);
  FAT_METHOD_INFO(edge::Demo, relay);
  FAT_METHOD_INFO(edge::Demo, guarded);
  std::map<std::string, std::vector<std::pair<int, int>>> index_;
  int n_ = 0;
};
}  // namespace edge
)";

const char* kEdgeSource = R"(
#include "demo.hpp"
namespace edge {
// Multi-catch: AError and BError are handled locally; only CError escapes.
void Demo::multi() {
  try {
    throw AError();
  } catch (const AError&) {
  } catch (const BError&) {
  }
  throw CError();
}
// Rethrow from a handler: `throw;` escapes as statically unknown type.
void Demo::relay() {
  try {
    throw AError();
  } catch (const AError&) {
    throw;
  }
}
// Function-try-block: the handler belongs to the function itself.
void Demo::guarded() try {
  n_ = n_ + 1;
  throw AError();
} catch (const AError&) {
}
}  // namespace edge
)";

}  // namespace

// ---- scanner edge cases -----------------------------------------------------

TEST_F(ScannerEdgeCases, NestedTemplateArgumentsInDeclaredTypes) {
  write("demo.hpp", kEdgeHeader);
  const analyze::SourceModel model = scan();
  ASSERT_TRUE(model.declared_types.count("index_"));
  const std::string& ty = model.declared_types.at("index_");
  EXPECT_NE(ty.find("map"), std::string::npos) << ty;
  EXPECT_NE(ty.find("vector"), std::string::npos) << ty;
  EXPECT_NE(ty.find("pair"), std::string::npos) << ty;
}

TEST_F(ScannerEdgeCases, MultiCatchSuppressesOnlyHandledTypes) {
  write("demo.hpp", kEdgeHeader);
  write("demo.cpp", kEdgeSource);
  const analyze::SourceModel model = scan();
  const analyze::StaticCallGraph graph =
      analyze::build_static_call_graph(model, {});
  ASSERT_TRUE(graph.may_propagate.count("edge::Demo::multi"));
  const auto& prop = graph.may_propagate.at("edge::Demo::multi");
  EXPECT_TRUE(prop.count("CError"));
  EXPECT_FALSE(prop.count("AError"));
  EXPECT_FALSE(prop.count("BError"));
  EXPECT_FALSE(prop.count("*"));
}

TEST_F(ScannerEdgeCases, RethrowEscapesAsWildcard) {
  write("demo.hpp", kEdgeHeader);
  write("demo.cpp", kEdgeSource);
  const analyze::SourceModel model = scan();
  const analyze::StaticCallGraph graph =
      analyze::build_static_call_graph(model, {});
  ASSERT_TRUE(graph.may_propagate.count("edge::Demo::relay"));
  EXPECT_TRUE(graph.may_propagate.at("edge::Demo::relay").count("*"));
  // The wildcard covers any dynamically observed type...
  EXPECT_TRUE(graph.covers("edge::Demo::relay", "totally::Unforeseen"));
  // ...and surfaces in the explicit set the static lint checks.
  ASSERT_TRUE(graph.may_raise_explicit.count("edge::Demo::relay"));
  EXPECT_TRUE(graph.may_raise_explicit.at("edge::Demo::relay").count("*"));
}

TEST_F(ScannerEdgeCases, FunctionTryBlockBodyIncludesHandlers) {
  write("demo.hpp", kEdgeHeader);
  write("demo.cpp", kEdgeSource);
  const analyze::SourceModel model = scan();
  // The definition must be found at all (a pre-Pass-4 scanner dropped
  // `f() try {` bodies entirely), and its body must contain the handler.
  const analyze::FunctionDef* guarded = nullptr;
  for (const auto& def : model.functions)
    if (def.name == "guarded" && def.class_name == "edge::Demo")
      guarded = &def;
  ASSERT_NE(guarded, nullptr);
  bool has_catch = false;
  for (const analyze::Sym tok : guarded->body)
    has_catch |= tok == analyze::sym::Catch;
  EXPECT_TRUE(has_catch);
  // The effect pass sees the catch clause...
  const analyze::EffectAnalysis effects = analyze::analyze_effects(model);
  const analyze::EffectSummary* es = effects.find("edge::Demo::guarded");
  ASSERT_NE(es, nullptr);
  EXPECT_TRUE(es->scanned);
  EXPECT_TRUE(es->catches);
  // ...and the static graph suppresses the locally handled AError.
  const analyze::StaticCallGraph graph =
      analyze::build_static_call_graph(model, {});
  ASSERT_TRUE(graph.may_propagate.count("edge::Demo::guarded"));
  EXPECT_FALSE(graph.may_propagate.at("edge::Demo::guarded").count("AError"));
}

// A by-value handler may name its type qualified and leave the variable out;
// the type is still the handler's last identifier.  Both passes must see the
// throw caught, so the mutation before the `try` keeps the method proven.
TEST_F(ScannerEdgeCases, QualifiedUnnamedHandlerCatchesItsType) {
  write("box.hpp", R"(
#pragma once
namespace edge {
class AError {};
class Box {
 public:
  void unnamed();
  void named();
 private:
  FAT_METHOD_INFO(edge::Box, unnamed);
  FAT_METHOD_INFO(edge::Box, named);
  int n_ = 0;
};
}  // namespace edge
)");
  write("box.cpp", R"(
#include "box.hpp"
namespace edge {
void Box::unnamed() {
  n_ = 1;
  try {
    throw edge::AError();
  } catch (edge::AError) {
  }
}
void Box::named() {
  n_ = 1;
  try {
    throw edge::AError();
  } catch (edge::AError e) {
  }
}
}  // namespace edge
)");
  const analyze::SourceModel model = scan();
  const analyze::StaticCallGraph graph =
      analyze::build_static_call_graph(model, {});
  const analyze::EffectAnalysis effects = analyze::analyze_effects(model);
  for (const char* method : {"edge::Box::unnamed", "edge::Box::named"}) {
    ASSERT_TRUE(graph.may_propagate.count(method)) << method;
    EXPECT_FALSE(graph.may_propagate.at(method).count("AError")) << method;
    EXPECT_FALSE(graph.may_raise_explicit.at(method).count("AError"))
        << method;
    const analyze::EffectSummary* es = effects.find(method);
    ASSERT_NE(es, nullptr) << method;
    EXPECT_EQ(es->throw_events, 0u) << method;
    EXPECT_TRUE(es->proven_atomic()) << method;
  }
}

// ---- static lint: the dynamic blind spot ------------------------------------

TEST(Pass4Lint, FlagsUncoveredMisdeclaredMethodTheDynamicLintMisses) {
  detect::Experiment exp(subjects::apps::app("lintDemo").program);
  const detect::Campaign campaign = exp.run();
  // LintDemo::vent is never called by the workload, so the dynamic lint
  // cannot flag it...
  for (const auto& f : analyze::lint(campaign))
    EXPECT_EQ(f.method.find("::vent"), std::string::npos) << f.method;
  // ...but the static lint must: it declares LintDemoError yet throws
  // UndeclaredError on an uncovered path.
  const auto findings = analyze::lint_static(campaign, static_report().model,
                                             static_report().graph, {});
  bool flagged_vent = false;
  for (const auto& f : findings) {
    if (f.method != "subjects::apps::LintDemo::vent") continue;
    flagged_vent = true;
    EXPECT_NE(f.exception_type.find("UndeclaredError"), std::string::npos);
    EXPECT_EQ(f.injected_at, "(static)");
  }
  EXPECT_TRUE(flagged_vent);
  // Covered methods stay the dynamic lint's job: poke *is* exercised, so
  // the static pass must not duplicate the dynamic finding.
  for (const auto& f : findings)
    EXPECT_EQ(f.method.find("::poke"), std::string::npos) << f.method;
}

TEST(Pass4Lint, CleanOnCorrectlyDeclaredSubjects) {
  for (const char* name : {"LinkedList", "adaptorChain"}) {
    detect::Experiment exp(subjects::apps::app(name).program);
    const detect::Campaign campaign = exp.run();
    EXPECT_TRUE(analyze::lint_static(campaign, static_report().model,
                                     static_report().graph, {})
                    .empty())
        << name;
  }
}

// ---- graph-check: static-vs-dynamic soundness -------------------------------

TEST(Pass4GraphCheck, StaticGraphCoversTheDynamicCampaign) {
  for (const char* name : {"LinkedList", "RBMap", "adaptorChain"}) {
    detect::Experiment exp(subjects::apps::app(name).program);
    const detect::Campaign campaign = exp.run();
    const analyze::GraphCheckResult check =
        analyze::graph_check(campaign, static_report().graph);
    EXPECT_TRUE(check.ok())
        << name << ": " << (check.violations.empty()
                                ? ""
                                : check.violations[0].kind + " " +
                                      check.violations[0].node + " -> " +
                                      check.violations[0].detail);
    EXPECT_GT(check.edges_checked, 0u) << name;
    EXPECT_GT(check.types_checked, 0u) << name;
  }
}

// ---- summaries: the effect pass's lattice ----------------------------------

TEST(Pass4Summary, JoinIsALatticeJoinAndEqualitySeesEveryField) {
  using analyze::FnSummary;
  // One setter per field: a summary that differs from the bottom in that
  // field alone (`write_param_positions` included), so `==` must tell them
  // apart and joining it into the bottom must keep it.
  const std::vector<std::function<void(FnSummary&)>> fields = {
      [](FnSummary& s) { s.mutates_env = true; },
      [](FnSummary& s) { s.mutates_params = true; },
      [](FnSummary& s) { s.may_throw = true; },
      [](FnSummary& s) { s.catches = true; },
      [](FnSummary& s) { s.writes = {"head_"}; },
      [](FnSummary& s) { s.writes_unknown = true; },
      [](FnSummary& s) { s.param_writes = {"size_"}; },
      [](FnSummary& s) { s.param_writes_unknown = true; },
      [](FnSummary& s) { s.write_param_positions = {1}; },
      [](FnSummary& s) { s.param_positions_unknown = true; },
  };
  const FnSummary bottom;
  std::vector<FnSummary> singles;
  for (const auto& set : fields) {
    FnSummary s;
    set(s);
    EXPECT_TRUE(s != bottom) << "field " << singles.size();
    FnSummary j = bottom;
    j.join(s);
    EXPECT_TRUE(j == s) << "join drops field " << singles.size();
    singles.push_back(s);
  }

  FnSummary a, b;
  a.mutates_env = true;
  a.writes = {"head_", "next"};
  a.write_param_positions = {0};
  b.may_throw = true;
  b.writes = {"prev"};
  b.param_writes = {"size_"};
  b.write_param_positions = {2};
  b.param_positions_unknown = true;
  for (const FnSummary& x : {a, b, singles.front(), singles.back()}) {
    FnSummary left = bottom, right = x, twice = x;
    left.join(x);
    right.join(bottom);
    twice.join(x);
    EXPECT_TRUE(left == x) << "the bottom is a left identity";
    EXPECT_TRUE(right == x) << "the bottom is a right identity";
    EXPECT_TRUE(twice == x) << "join is idempotent";
  }
  FnSummary ab = a, ba = b;
  ab.join(b);
  ba.join(a);
  EXPECT_TRUE(ab == ba) << "join is commutative";
  EXPECT_EQ(ab.writes, (std::set<std::string>{"head_", "next", "prev"}));
  EXPECT_EQ(ab.write_param_positions, (std::set<std::size_t>{0, 2}));
}

// ---- precision: what context sensitivity buys -------------------------------

// The retired pre-Pass-4 analysis proved 112 methods atomic and earned 112
// partial plans: its products are frozen in the `off` sections of
// tests/golden/static_{effects,write_sets}.txt, and StaticMonotonicity
// checks those counts.  Context sensitivity must stay strictly better.
TEST(Pass4Precision, ContextSensitivityGrowsProvenAndPartialCounts) {
  const analyze::StaticReport& cs = static_report();
  EXPECT_GT(cs.proven_count(), 112u);
  EXPECT_GT(cs.write_sets.partial_count(), 112u);
}

// ---- write sets: all collapse reasons + histogram ---------------------------

TEST(Pass4WriteSets, CollectsEveryCollapseReasonPerMethod) {
  const auto& ws = static_report().write_sets;
  std::size_t multi_reason = 0;
  for (const auto& [name, w] : ws.methods) {
    if (!w.top) continue;
    ASSERT_FALSE(w.top_reasons.empty()) << name;
    EXPECT_EQ(w.top_reasons.front(), w.top_reason) << name;
    if (w.top_reasons.size() > 1) ++multi_reason;
  }
  // The subject tree has methods with more than one obstacle (e.g. an
  // unresolved write target *and* a parameter-aliased write).
  EXPECT_GT(multi_reason, 0u);
  const auto hist = ws.top_histogram();
  ASSERT_FALSE(hist.empty());
  std::size_t total = 0;
  for (const auto& [family, n] : hist) total += n;
  // Families count once per method, so the histogram total is at least the
  // number of ⊤ methods.
  EXPECT_GE(total, ws.methods.size() - ws.partial_count());
  const std::string text = ws.to_text();
  EXPECT_NE(text.find("top-reason histogram"), std::string::npos);
}

TEST(Pass4WriteSets, JsonCarriesReasonsArrayAndHistogram) {
  detect::Experiment exp(subjects::apps::run_linked_list);
  const detect::Campaign campaign = exp.run();
  const auto cls = detect::classify(campaign, detect::Policy{});
  const std::string json =
      fatomic::report::campaign_json(campaign, cls, static_report());
  EXPECT_NE(json.find("\"reasons\":["), std::string::npos);
  EXPECT_NE(json.find("\"top_histogram\":{"), std::string::npos);
}
