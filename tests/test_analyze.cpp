// The static analyzer (analyze/): source model, effect pass, exception-flow
// lint, prune-set soundness.  The cross-check tests are the empirical guard
// behind feeding analyze::StaticReport::prune_set into
// fatomic::Config::prune_atomic — on every subject family the pruned
// campaign must classify identically to the full one (DESIGN.md §7).
#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <string>

#include "fatomic/analyze/effects.hpp"
#include "fatomic/analyze/exception_flow.hpp"
#include "fatomic/analyze/source_model.hpp"
#include "fatomic/analyze/static_report.hpp"
#include "fatomic/detect/callgraph.hpp"
#include "fatomic/detect/classify.hpp"
#include "fatomic/detect/experiment.hpp"
#include "fatomic/report/json.hpp"
#include "subjects/apps/apps.hpp"
#include "subjects/net/transport.hpp"

namespace analyze = fatomic::analyze;
namespace detect = fatomic::detect;

namespace {

const std::string kSubjectRoot = std::string(FATOMIC_SOURCE_DIR) + "/subjects";

/// The scan and the effect pass are deterministic and pure — run them once.
const analyze::StaticReport& static_report() {
  static const analyze::StaticReport report =
      analyze::analyze_sources(kSubjectRoot);
  return report;
}

/// Proven methods of one class, as simple method names.
std::set<std::string> proven_of(const std::string& cls) {
  std::set<std::string> out;
  for (const auto& [name, es] : static_report().effects.methods)
    if (es.class_name == cls && es.proven_atomic()) out.insert(es.method_name);
  return out;
}

/// The net subjects have no Table 1 application — a small deterministic
/// workload standing in for one.
void run_net() {
  subjects::net::Transport t;
  t.open("a");
  t.open("b");
  t.send("a", "hello");
  t.send("b", "world");
  t.recv("a");
  try {
    t.recv("a");  // drained: real exception path
  } catch (const subjects::net::NetError&) {
  }
  t.close_all();
}

class AnalyzeCrossCheck : public ::testing::Test {
 protected:
  void TearDown() override {
    fatomic::weave::Runtime::instance().set_mode(fatomic::weave::Mode::Direct);
    fatomic::weave::Runtime::instance().set_wrap_predicate(nullptr);
  }

  void expect_identical(std::function<void()> program) {
    const analyze::CrossCheck cc =
        analyze::cross_check(std::move(program), static_report().prune_set());
    EXPECT_TRUE(cc.identical) << "first mismatch: " << cc.mismatch;
    EXPECT_GT(cc.runs_saved, 0u);
    EXPECT_EQ(cc.pruned.pruned_runs, cc.runs_saved);
  }
};

}  // namespace

// ---- source model -----------------------------------------------------------

TEST(SourceModel, FindsInstrumentedClassesAndDeclaredThrows) {
  const auto& model = static_report().model;
  const auto* ll = model.find_class("subjects::collections::LinkedList");
  ASSERT_NE(ll, nullptr);
  EXPECT_TRUE(ll->instrumented.count("front"));
  EXPECT_TRUE(ll->fields.count("head_"));
  ASSERT_TRUE(ll->declared_throws.count("front"));
  EXPECT_EQ(ll->declared_throws.at("front").at(0),
            "subjects::collections::EmptyError");
  EXPECT_TRUE(model.has(model.symbols.find("push_back"),
                        analyze::kInstrumentedName));
  EXPECT_TRUE(model.has(model.symbols.find("Parser"), analyze::kClassName));
  // Declared types distinguish smart-pointer fields from subject objects.
  ASSERT_TRUE(model.declared_types.count("head_"));
  EXPECT_NE(model.declared_types.at("head_").find("unique_ptr"),
            std::string::npos);
}

// ---- effect pass, calibrated against known subjects -------------------------

TEST(EffectAnalysis, BuggyLinkedListProvesExactlyTheReadOnlyMethods) {
  // The legacy LinkedList audits *after* mutating, so only its read-only
  // methods are failure atomic — the case-study baseline (§6.1).
  const std::set<std::string> expected = {
      "front", "back", "at", "index_of", "contains", "to_vector", "audit"};
  EXPECT_EQ(proven_of("subjects::collections::LinkedList"), expected);
}

TEST(EffectAnalysis, FixedLinkedListProvesTheRepairedMethods) {
  const auto proven = proven_of("subjects::collections::LinkedListFixed");
  for (const char* m : {"front", "back", "at", "clear", "sort", "reverse",
                        "set_at", "remove_at", "push_back", "push_front",
                        "pop_front", "pop_back", "insert_at", "add_all"})
    EXPECT_TRUE(proven.count(m)) << m << " should be proven";
  // The genuinely hard cases must stay unproven.
  for (const char* m : {"remove_value", "extend", "insert_sorted"})
    EXPECT_FALSE(proven.count(m)) << m << " must not be proven";
}

TEST(EffectAnalysis, HashedMapProvesReadOnlyAndInjectionFreeMethods) {
  // Beyond the read-only accessors, clear and rehash are provable: their
  // bodies touch only std containers, so under the fault model (injections
  // occur at instrumented wrappers only) no exception can interrupt them
  // after their first mutation.  put/put_all/remove call fallible
  // instrumented helpers mid-mutation and must stay unproven.
  const std::set<std::string> expected = {
      "get", "get_or", "contains_key", "keys", "values", "clear", "rehash"};
  EXPECT_EQ(proven_of("subjects::collections::HashedMap"), expected);
  const auto proven = proven_of("subjects::collections::HashedMap");
  for (const char* m : {"put", "put_all", "put_if_absent", "remove"})
    EXPECT_FALSE(proven.count(m)) << m << " must not be proven";
}

TEST(EffectAnalysis, SelfStarCommitPointMethodsProven) {
  EXPECT_TRUE(
      proven_of("subjects::selfstar::ComponentFactory").count("build"));
  EXPECT_TRUE(proven_of("subjects::selfstar::EventQueue").count("clear"));
  EXPECT_TRUE(proven_of("subjects::xml::XmlDocument").count("parse"));
}

TEST(EffectAnalysis, PruneSetExcludesCatchingAndStaticMethods) {
  const auto& report = static_report();
  const auto prune = report.prune_set();
  EXPECT_GT(prune.size(), 0u);
  for (const auto& name : prune) {
    const analyze::EffectSummary* es = report.effects.find(name);
    ASSERT_NE(es, nullptr) << name;
    EXPECT_TRUE(es->proven_atomic()) << name;
    EXPECT_FALSE(es->catches) << name;
    EXPECT_FALSE(es->is_static) << name;
  }
}

// ---- full-vs-pruned cross-check, one workload per subject family ------------

TEST_F(AnalyzeCrossCheck, Collections) {
  expect_identical(subjects::apps::run_linked_list_fixed);
}

TEST_F(AnalyzeCrossCheck, Maps) {
  expect_identical(subjects::apps::run_hashed_map);
}

TEST_F(AnalyzeCrossCheck, Regexp) {
  expect_identical(subjects::apps::run_regexp);
}

TEST_F(AnalyzeCrossCheck, Xml) {
  expect_identical(subjects::apps::run_xml2xml1);
}

TEST_F(AnalyzeCrossCheck, SelfStar) {
  expect_identical(subjects::apps::run_adaptor_chain);
}

TEST_F(AnalyzeCrossCheck, Net) { expect_identical(run_net); }

TEST_F(AnalyzeCrossCheck, PrunedParallelMatchesPrunedSequential) {
  auto run = [&](unsigned jobs) {
    fatomic::Config cfg;
    cfg.jobs(jobs).prune_atomic(static_report().prune_set());
    return detect::Experiment(subjects::apps::run_linked_list_fixed, cfg)
        .run();
  };
  const detect::Campaign seq = run(1);
  const detect::Campaign par = run(2);
  EXPECT_EQ(fatomic::report::campaign_json(seq),
            fatomic::report::campaign_json(par));
}

// ---- exception-flow lint ----------------------------------------------------

TEST_F(AnalyzeCrossCheck, LintFlagsTheMisdeclaredSubject) {
  detect::Experiment exp(subjects::apps::app("lintDemo").program);
  const detect::Campaign campaign = exp.run();
  const auto findings = analyze::lint(campaign);
  ASSERT_FALSE(findings.empty());
  bool flagged_poke = false;
  for (const auto& f : findings) {
    EXPECT_NE(f.exception_type.find("UndeclaredError"), std::string::npos)
        << "only the undeclared type may be flagged, got "
        << f.exception_type << " at " << f.method;
    if (f.method == "subjects::apps::LintDemo::poke") flagged_poke = true;
  }
  EXPECT_TRUE(flagged_poke);
}

TEST_F(AnalyzeCrossCheck, LintCleanOnCorrectlyDeclaredSubjects) {
  for (const char* name : {"LinkedList", "adaptorChain"}) {
    detect::Experiment exp(subjects::apps::app(name).program);
    const detect::Campaign campaign = exp.run();
    EXPECT_TRUE(analyze::lint(campaign).empty()) << name;
  }
}

TEST_F(AnalyzeCrossCheck, MayPropagateIsTransitiveOverTheCallGraph) {
  detect::Experiment exp(subjects::apps::app("stdQ").program);
  const detect::Campaign campaign = exp.run();
  const analyze::ExceptionFlow flow = analyze::propagate_exceptions(campaign);
  const auto graph = detect::CallGraph::from(campaign);
  for (const auto& [caller, callees] : graph.edges()) {
    if (caller == detect::CallGraph::kRoot) continue;
    const auto* caller_set = flow.find(caller);
    ASSERT_NE(caller_set, nullptr) << caller;
    for (const auto& [callee, count] : callees) {
      const auto* callee_set = flow.find(callee);
      ASSERT_NE(callee_set, nullptr) << callee;
      for (const auto& exc : *callee_set)
        EXPECT_TRUE(caller_set->count(exc))
            << exc << " propagates through " << callee << " but not its "
            << "caller " << caller;
    }
  }
}

// ---- report plumbing --------------------------------------------------------

TEST_F(AnalyzeCrossCheck, JsonGainsStaticAnalysisSection) {
  detect::Experiment exp(subjects::apps::run_linked_list);
  const detect::Campaign campaign = exp.run();
  const auto cls = detect::classify(campaign, detect::Policy{});
  const std::string json =
      fatomic::report::campaign_json(campaign, cls, static_report());
  EXPECT_NE(json.find("\"static_analysis\""), std::string::npos);
  EXPECT_NE(json.find("\"agreement\""), std::string::npos);
  EXPECT_NE(json.find("\"pruned_runs\":0"), std::string::npos);
  // Verdicts of both passes appear for the calibrated subject.
  EXPECT_NE(json.find("subjects::collections::LinkedList::front"),
            std::string::npos);
}

TEST(CallGraphDot, QuotesAndEscapesQualifiedNames) {
  detect::Campaign campaign;  // synthetic: to_dot must quote what it emits
  const std::string dot = detect::CallGraph::from(campaign).to_dot();
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  const std::string quoted = detect::dot_quote("evil\"name\\with\nspecials");
  EXPECT_EQ(quoted, "\"evil\\\"name\\\\with\\nspecials\"");
}
