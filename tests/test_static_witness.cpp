// The static witness: every product of Passes 0–5 over the subject tree,
// rendered and compared with tests/golden/static_*.txt (see
// testing/static_witness.hpp), with context_sensitive on and off.  Plus the
// first configuration-differential check of the static passes: switching
// context sensitivity on may only gain precision.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <string>

#include "fatomic/analyze/static_report.hpp"
#include "testing/static_witness.hpp"

namespace analyze = fatomic::analyze;

namespace {

const std::string kSubjectRoot = std::string(FATOMIC_SOURCE_DIR) + "/subjects";

analyze::StaticReport build(bool context_sensitive) {
  analyze::AnalyzeOptions opts;
  opts.context_sensitive = context_sensitive;
  return analyze::analyze_sources(kSubjectRoot, opts);
}

const analyze::StaticReport& report(bool context_sensitive) {
  static const analyze::StaticReport on = build(true);
  static const analyze::StaticReport off = build(false);
  return context_sensitive ? on : off;
}

const std::map<std::string, std::string>& rendered(bool context_sensitive) {
  static const auto on = static_witness::render(report(true));
  static const auto off = static_witness::render(report(false));
  return context_sensitive ? on : off;
}

class StaticWitness : public ::testing::TestWithParam<std::string> {};

TEST_P(StaticWitness, ReproducesGoldenFile) {
  const std::string& product = GetParam();
  const std::string expected = static_witness::golden(product);
  ASSERT_FALSE(expected.empty())
      << "missing " << static_witness::golden_path(product);
  const std::string actual =
      static_witness::file_text(product, rendered(true), rendered(false));
  const std::string diff = static_witness::first_difference(expected, actual);
  if (!diff.empty()) {
    // Leave the rendering next to the test's temp files: a deliberate
    // change to a pass output is reviewed against it and copied over.
    const std::string out =
        ::testing::TempDir() + "static_" + product + ".txt";
    std::ofstream(out, std::ios::binary) << actual;
    ADD_FAILURE() << static_witness::golden_path(product) << ": " << diff
                  << "\nthis build's rendering: " << out;
  }
  if (!static_witness::per_mode(product)) {
    EXPECT_EQ(static_witness::first_difference(rendered(true).at(product),
                                               rendered(false).at(product)),
              "")
        << product << " must not depend on context_sensitive";
  }
}

INSTANTIATE_TEST_SUITE_P(Products, StaticWitness,
                         ::testing::Values("model", "effects", "write_sets",
                                           "graph", "alias"),
                         [](const auto& info) { return info.param; });

// Switching context sensitivity on adds precision features only: no proven
// method loses its proof, no partial plan falls back to a full checkpoint,
// no capture set grows and no prune set shrinks.
TEST(StaticMonotonicity, ContextSensitivityOnlyGainsPrecision) {
  const analyze::StaticReport& off = report(false);
  const analyze::StaticReport& on = report(true);
  ASSERT_EQ(off.method_count(), on.method_count());
  for (const auto& [name, es_off] : off.effects.methods) {
    const analyze::EffectSummary* es_on = on.effects.find(name);
    ASSERT_NE(es_on, nullptr) << name;
    EXPECT_TRUE(!es_off.proven_atomic() || es_on->proven_atomic())
        << name << " lost its proof";
  }
  for (const auto& [name, w_off] : off.write_sets.methods) {
    const analyze::MethodWriteSet* w_on = on.write_sets.find(name);
    ASSERT_NE(w_on, nullptr) << name;
    if (!w_off.plan.partial) continue;
    if (!w_on->plan.partial) {
      ADD_FAILURE() << name << " fell back to a full plan";
      continue;
    }
    const auto& cap_on = w_on->plan.capture;
    const auto& cap_off = w_off.plan.capture;
    EXPECT_TRUE(std::includes(cap_off.begin(), cap_off.end(), cap_on.begin(),
                              cap_on.end()))
        << name << " captures more";
    const auto& prune_on = w_on->plan.prune;
    const auto& prune_off = w_off.plan.prune;
    EXPECT_TRUE(std::includes(prune_on.begin(), prune_on.end(),
                              prune_off.begin(), prune_off.end()))
        << name << " prunes less";
  }
}

}  // namespace
