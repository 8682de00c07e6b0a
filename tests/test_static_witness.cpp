// The static witness: every product of Passes 0–5 over the subject tree,
// rendered and compared with tests/golden/static_*.txt (see
// testing/static_witness.hpp).  Plus the first configuration-differential
// check of the static passes: against the frozen products of the retired
// pre-Pass-4 analysis, context sensitivity may only gain precision.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "fatomic/analyze/static_report.hpp"
#include "testing/static_witness.hpp"

namespace analyze = fatomic::analyze;

namespace {

const std::string kSubjectRoot = std::string(FATOMIC_SOURCE_DIR) + "/subjects";

const analyze::StaticReport& report() {
  static const analyze::StaticReport r = analyze::analyze_sources(kSubjectRoot);
  return r;
}

const std::map<std::string, std::string>& rendered() {
  static const auto r = static_witness::render(report());
  return r;
}

class StaticWitness : public ::testing::TestWithParam<std::string> {};

TEST_P(StaticWitness, ReproducesGoldenFile) {
  const std::string& product = GetParam();
  const std::string expected = static_witness::golden(product);
  ASSERT_FALSE(expected.empty())
      << "missing " << static_witness::golden_path(product);
  const std::string actual =
      static_witness::file_text(product, rendered(), expected);
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
}

INSTANTIATE_TEST_SUITE_P(Products, StaticWitness,
                         ::testing::Values("model", "effects", "write_sets",
                                           "graph", "alias"),
                         [](const auto& info) { return info.param; });

/// The lines of a golden file's frozen `off` section.
std::vector<std::string> off_lines(const std::string& product) {
  std::istringstream in(
      static_witness::off_section(static_witness::golden(product)));
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

/// The value of ` key=` in a rendered line, up to the next space.
std::string field(const std::string& line, const std::string& key) {
  const std::size_t at = line.find(' ' + key + '=');
  if (at == std::string::npos) return "";
  const std::size_t b = at + key.size() + 2;
  return line.substr(b, line.find(' ', b) - b);
}

/// A rendered name list ("a,b", or "-" for none) as a set.
std::set<std::string> name_set(const std::string& list) {
  std::set<std::string> out;
  if (list == "-") return out;
  std::istringstream in(list);
  for (std::string name; std::getline(in, name, ',');) out.insert(name);
  return out;
}

/// Context sensitivity adds precision features only: against the frozen
/// pre-Pass-4 products no proven method loses its proof, no partial plan
/// falls back to a full checkpoint, no capture set grows and no prune set
/// shrinks.
TEST(StaticMonotonicity, ContextSensitivityOnlyGainsPrecision) {
  const analyze::StaticReport& on = report();

  // Effects lines read "method <name> <verdict> ...".
  std::size_t methods = 0, proven = 0;
  for (const std::string& line : off_lines("effects")) {
    std::istringstream words(line);
    std::string kind, name, verdict;
    words >> kind >> name >> verdict;
    if (kind != "method") continue;
    ++methods;
    const bool proven_off =
        verdict == "read-only" || verdict == "commit-point-last";
    if (proven_off) ++proven;
    const analyze::EffectSummary* es_on = on.effects.find(name);
    ASSERT_NE(es_on, nullptr) << name;
    EXPECT_TRUE(!proven_off || es_on->proven_atomic())
        << name << " lost its proof";
  }

  // Write-set lines read "<name> top=... plan=... capture=... prune=...".
  std::size_t plans = 0, partial = 0;
  for (const std::string& line : off_lines("write_sets")) {
    ++plans;
    const std::string name = line.substr(0, line.find(' '));
    const analyze::MethodWriteSet* w_on = on.write_sets.find(name);
    ASSERT_NE(w_on, nullptr) << name;
    if (field(line, "plan") != "partial") continue;
    ++partial;
    if (!w_on->plan.partial) {
      ADD_FAILURE() << name << " fell back to a full plan";
      continue;
    }
    const auto& cap_on = w_on->plan.capture;
    const std::set<std::string> cap_off = name_set(field(line, "capture"));
    EXPECT_TRUE(std::includes(cap_off.begin(), cap_off.end(), cap_on.begin(),
                              cap_on.end()))
        << name << " captures more";
    const auto& prune_on = w_on->plan.prune;
    const std::set<std::string> prune_off = name_set(field(line, "prune"));
    EXPECT_TRUE(std::includes(prune_on.begin(), prune_on.end(),
                              prune_off.begin(), prune_off.end()))
        << name << " prunes less";
  }

  // The frozen input is complete: a missing or truncated section must fail
  // here instead of leaving the checks above with nothing to check.
  ASSERT_EQ(methods, on.method_count());
  EXPECT_EQ(methods, 194u);
  EXPECT_EQ(proven, 112u);
  EXPECT_EQ(plans, 194u);
  EXPECT_EQ(partial, 112u);
}

}  // namespace
