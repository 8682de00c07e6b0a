// Pass 5 (analyze/alias): corner cases of the alias/escape lattice — a
// pointer cursor rebound inside a loop, const_cast laundering (must widen
// to ⊤), a pointer-to-field returned through an un-instrumented helper,
// structured bindings over receiver fields, and alias chains crossing a
// ctor frame (fresh storage is droppable for one member hop, never two) —
// plus the `alias_check` soundness gate over synthetic campaign footprints.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <string>

#include "fatomic/analyze/alias.hpp"
#include "fatomic/analyze/effects.hpp"
#include "fatomic/analyze/source_model.hpp"
#include "fatomic/analyze/write_sets.hpp"
#include "fatomic/detect/campaign.hpp"
#include "fatomic/weave/method_info.hpp"

namespace analyze = fatomic::analyze;
namespace detect = fatomic::detect;
namespace weave = fatomic::weave;
namespace fs = std::filesystem;

namespace {

/// Writes a synthetic subject tree into a fresh temp directory and scans it.
/// The scanner works on macro *tokens*, so the files never need to compile.
class AliasEdgeCases : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::path(::testing::TempDir()) /
            ("fatomic_alias_" +
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

const char* kAliasHeader = R"(
#pragma once
namespace edge {
class Bad {};
struct Node {
  int value = 0;
  Node* next = nullptr;
};
struct Wrap {
  Wrap(Node* p);
  Node* p = nullptr;
  int count = 0;
};
class Box {
 public:
  void bump();
  void launder();
  void step();
  void unpack();
  void fresh();
  void stash();
 private:
  Node* pick(Node* a);
  FAT_METHOD_INFO(edge::Box, bump);
  FAT_METHOD_INFO(edge::Box, launder);
  FAT_METHOD_INFO(edge::Box, step);
  FAT_METHOD_INFO(edge::Box, unpack);
  FAT_METHOD_INFO(edge::Box, fresh);
  FAT_METHOD_INFO(edge::Box, stash);
  Node* head_ = nullptr;
  Node* tail_ = nullptr;
  const Node* frozen_ = nullptr;
  std::pair<int, int> range_;
};
}  // namespace edge
FAT_REFLECT(edge::Node, FAT_FIELD(edge::Node, value),
            FAT_FIELD(edge::Node, next));
FAT_REFLECT(edge::Box, FAT_FIELD(edge::Box, head_),
            FAT_FIELD(edge::Box, tail_));
)";

const char* kAliasSource = R"(
#include "box.hpp"
namespace edge {
// Cursor rebound inside the loop: the flow-insensitive merge must keep
// both bindings (head_ from the init, next from the rebinding), so the
// final write is attributed to the receiver subtree, not collapsed.
void Box::bump() {
  Node* cur = head_;
  while (cur != nullptr) {
    cur = cur->next;
  }
  cur->value = 1;
  throw Bad();
}
// const_cast laundering: the binding widens to ⊤ and the starred write
// through it keeps the historical full-checkpoint collapse.
void Box::launder() {
  Node* p = const_cast<Node*>(frozen_);
  *p = Node();
  throw Bad();
}
Node* Box::pick(Node* a) { return a; }
// Pointer-to-field threaded through the un-instrumented helper above: the
// callee's `return a` is a position-0 parameter alias, re-resolved at the
// call site to the receiver subtree the argument names.
void Box::step() {
  Node* p = pick(head_);
  p->value = 7;
  throw Bad();
}
// Structured bindings over a receiver field: every bound name aliases the
// initializer's subtree.
void Box::unpack() {
  auto& [lo, hi] = range_;
  lo = 3;
  throw Bad();
}
// A fresh allocation terminates the chain: one-hop writes land in the new
// object's own storage and are droppable — even when they *store* receiver
// pointers (the classic pre-publication list splice).
void Box::fresh() {
  Node* n = new Node();
  n->value = 4;
  n->next = head_;
  throw Bad();
}
// Crossing the ctor frame: Wrap may have stashed the receiver pointer it
// was constructed from, so a *second* member hop re-enters receiver state
// and must not be dropped with the frame-local storage.
void Box::stash() {
  Wrap w(head_);
  w.p->value = 5;
  throw Bad();
}
}  // namespace edge
)";

}  // namespace

// ---- alias lattice corner cases ---------------------------------------------

TEST_F(AliasEdgeCases, ReferenceRebindingInLoopMergesBothBindings) {
  write("box.hpp", kAliasHeader);
  write("box.cpp", kAliasSource);
  const analyze::SourceModel model = scan();
  const analyze::AliasAnalysis aliases = analyze::analyze_aliases(model);
  const analyze::FnAliasInfo* info = aliases.find("edge::Box::bump");
  ASSERT_NE(info, nullptr);
  ASSERT_TRUE(info->locals.count("cur"));
  const analyze::AliasTarget& cur = info->locals.at("cur");
  EXPECT_EQ(cur.kind, analyze::AliasTarget::Kind::Field);
  EXPECT_TRUE(cur.roots.count("head_"));
  EXPECT_TRUE(cur.roots.count("next"));

  const analyze::EffectAnalysis effects = analyze::analyze_effects(model);
  const analyze::EffectSummary* es = effects.find("edge::Box::bump");
  ASSERT_NE(es, nullptr);
  EXPECT_FALSE(es->write_top);
  EXPECT_TRUE(es->write_names.count("value"));
  const analyze::WriteSetAnalysis ws = analyze::analyze_write_sets(model, effects);
  const analyze::MethodWriteSet* w = ws.find("edge::Box::bump");
  ASSERT_NE(w, nullptr);
  EXPECT_TRUE(w->plan.partial);
  EXPECT_TRUE(w->plan.capture.count("value"));
}

TEST_F(AliasEdgeCases, ConstCastLaunderingStaysTop) {
  write("box.hpp", kAliasHeader);
  write("box.cpp", kAliasSource);
  const analyze::SourceModel model = scan();
  const analyze::AliasAnalysis aliases = analyze::analyze_aliases(model);
  const analyze::FnAliasInfo* info = aliases.find("edge::Box::launder");
  ASSERT_NE(info, nullptr);
  ASSERT_TRUE(info->locals.count("p"));
  EXPECT_EQ(info->locals.at("p").kind, analyze::AliasTarget::Kind::Top);

  const analyze::EffectAnalysis effects = analyze::analyze_effects(model);
  const analyze::EffectSummary* es = effects.find("edge::Box::launder");
  ASSERT_NE(es, nullptr);
  EXPECT_TRUE(es->write_top);
  const analyze::WriteSetAnalysis ws = analyze::analyze_write_sets(model, effects);
  const analyze::MethodWriteSet* w = ws.find("edge::Box::launder");
  ASSERT_NE(w, nullptr);
  EXPECT_TRUE(w->top);
  EXPECT_FALSE(w->plan.partial);
}

TEST_F(AliasEdgeCases, PointerToFieldThroughHelperResolves) {
  write("box.hpp", kAliasHeader);
  write("box.cpp", kAliasSource);
  const analyze::SourceModel model = scan();
  const analyze::AliasAnalysis aliases = analyze::analyze_aliases(model);
  const analyze::FnAliasInfo* helper = aliases.find("edge::Box::pick");
  ASSERT_NE(helper, nullptr);
  EXPECT_TRUE(helper->has_return);
  EXPECT_EQ(helper->returns.kind, analyze::AliasTarget::Kind::Param);
  EXPECT_TRUE(helper->returns.positions.count(0));

  const analyze::FnAliasInfo* info = aliases.find("edge::Box::step");
  ASSERT_NE(info, nullptr);
  ASSERT_TRUE(info->locals.count("p"));
  const analyze::AliasTarget& p = info->locals.at("p");
  EXPECT_EQ(p.kind, analyze::AliasTarget::Kind::Field);
  EXPECT_TRUE(p.roots.count("head_"));

  const analyze::EffectAnalysis effects = analyze::analyze_effects(model);
  const analyze::EffectSummary* es = effects.find("edge::Box::step");
  ASSERT_NE(es, nullptr);
  EXPECT_FALSE(es->write_top);
  EXPECT_TRUE(es->write_names.count("value"));
}

TEST_F(AliasEdgeCases, StructuredBindingsOverReceiverFields) {
  write("box.hpp", kAliasHeader);
  write("box.cpp", kAliasSource);
  const analyze::SourceModel model = scan();
  const analyze::AliasAnalysis aliases = analyze::analyze_aliases(model);
  const analyze::FnAliasInfo* info = aliases.find("edge::Box::unpack");
  ASSERT_NE(info, nullptr);
  ASSERT_TRUE(info->locals.count("lo"));
  ASSERT_TRUE(info->locals.count("hi"));
  for (const char* name : {"lo", "hi"}) {
    const analyze::AliasTarget& t = info->locals.at(name);
    EXPECT_EQ(t.kind, analyze::AliasTarget::Kind::Field) << name;
    EXPECT_TRUE(t.roots.count("range_")) << name;
  }

  const analyze::EffectAnalysis effects = analyze::analyze_effects(model);
  const analyze::EffectSummary* es = effects.find("edge::Box::unpack");
  ASSERT_NE(es, nullptr);
  EXPECT_FALSE(es->write_top);
  EXPECT_TRUE(es->write_names.count("range_"));
}

TEST_F(AliasEdgeCases, AliasChainAcrossCtorFrame) {
  write("box.hpp", kAliasHeader);
  write("box.cpp", kAliasSource);
  const analyze::SourceModel model = scan();
  const analyze::AliasAnalysis aliases = analyze::analyze_aliases(model);

  // Fresh allocation: Local, and the one-hop write is dropped entirely.
  const analyze::FnAliasInfo* fresh = aliases.find("edge::Box::fresh");
  ASSERT_NE(fresh, nullptr);
  ASSERT_TRUE(fresh->locals.count("n"));
  EXPECT_EQ(fresh->locals.at("n").kind, analyze::AliasTarget::Kind::Local);
  const analyze::EffectAnalysis effects = analyze::analyze_effects(model);
  const analyze::EffectSummary* es_fresh = effects.find("edge::Box::fresh");
  ASSERT_NE(es_fresh, nullptr);
  EXPECT_FALSE(es_fresh->write_top);
  EXPECT_TRUE(es_fresh->write_names.empty());

  // Crossing the ctor frame: the second hop must survive as a named write —
  // Wrap's ctor may have stashed the receiver pointer.
  const analyze::FnAliasInfo* stash = aliases.find("edge::Box::stash");
  ASSERT_NE(stash, nullptr);
  ASSERT_TRUE(stash->locals.count("w"));
  EXPECT_EQ(stash->locals.at("w").kind, analyze::AliasTarget::Kind::Local);
  const analyze::EffectSummary* es_stash = effects.find("edge::Box::stash");
  ASSERT_NE(es_stash, nullptr);
  EXPECT_TRUE(es_stash->write_top || es_stash->write_names.count("value"));
  EXPECT_FALSE(!es_stash->write_top && es_stash->write_names.empty());
}

// ---- the dynamic soundness gate ---------------------------------------------

namespace {

/// One synthetic campaign with a single non-atomic mark carrying `paths`.
detect::Campaign campaign_with_footprint(const weave::MethodInfo* mi,
                                         std::vector<std::string> paths,
                                         bool atomic = false) {
  detect::Campaign campaign;
  detect::RunRecord run;
  run.injection_point = 1;
  run.injected_method = mi;
  weave::Mark mark{mi, atomic, 0, "", "", 0, std::move(paths)};
  run.marks.push_back(std::move(mark));
  campaign.runs.push_back(std::move(run));
  return campaign;
}

analyze::WriteSetAnalysis partial_plan(const std::string& qualified,
                                       std::set<std::string> capture,
                                       std::set<std::string> prune) {
  analyze::WriteSetAnalysis ws;
  analyze::MethodWriteSet w;
  w.qualified_name = qualified;
  w.plan.partial = true;
  w.plan.capture = std::move(capture);
  w.plan.prune = std::move(prune);
  ws.methods.emplace(qualified, std::move(w));
  return ws;
}

}  // namespace

TEST(AliasCheckGate, FlagsUncoveredAndPrunedPaths) {
  static weave::MethodInfo mi("GateT", "m", {});
  const auto ws = partial_plan("GateT::m", {"value"}, {"left"});
  const auto campaign = campaign_with_footprint(
      &mi, {"root.value", "root.other", "root.left.value"});
  const analyze::AliasCheckResult res = analyze::alias_check(campaign, ws);
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.marks_checked, 1u);
  EXPECT_EQ(res.paths_checked, 3u);
  ASSERT_EQ(res.violations.size(), 2u);
  std::set<std::string> paths;
  for (const auto& v : res.violations) {
    EXPECT_EQ(v.method, "GateT::m");
    paths.insert(v.path);
  }
  EXPECT_TRUE(paths.count("root.other"));
  EXPECT_TRUE(paths.count("root.left.value"));
}

TEST(AliasCheckGate, CoveredFootprintIsSound) {
  static weave::MethodInfo mi("GateU", "m", {});
  const auto ws = partial_plan("GateU::m", {"value", "count"}, {});
  const auto campaign =
      campaign_with_footprint(&mi, {"root.value", "root.next.count"});
  const analyze::AliasCheckResult res = analyze::alias_check(campaign, ws);
  EXPECT_TRUE(res.ok());
  EXPECT_EQ(res.paths_checked, 2u);
}

TEST(AliasCheckGate, SkipsAtomicMarksAndFullPlanMethods) {
  static weave::MethodInfo mi("GateV", "m", {});
  // Atomic mark: nothing to validate even with an uncovered path.
  {
    const auto ws = partial_plan("GateV::m", {"value"}, {});
    const auto campaign =
        campaign_with_footprint(&mi, {"root.other"}, /*atomic=*/true);
    EXPECT_TRUE(analyze::alias_check(campaign, ws).ok());
  }
  // Full-plan method: the checkpoint covers everything by construction.
  {
    analyze::WriteSetAnalysis ws;
    analyze::MethodWriteSet w;
    w.qualified_name = "GateV::m";
    w.top = true;
    ws.methods.emplace("GateV::m", std::move(w));
    const auto campaign = campaign_with_footprint(&mi, {"root.other"});
    const analyze::AliasCheckResult res = analyze::alias_check(campaign, ws);
    EXPECT_TRUE(res.ok());
    EXPECT_EQ(res.paths_checked, 0u);
  }
}
