#include "fatomic/snapshot/diff.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>

#include "fatomic/detect/classify.hpp"
#include "fatomic/detect/experiment.hpp"
#include "fatomic/snapshot/arena.hpp"
#include "testing/synthetic.hpp"
#include "testing/types.hpp"

namespace snap = fatomic::snapshot;
using namespace testing_types;

TEST(Diff, EqualSnapshotsProduceNoDifferences) {
  Plain p{1, 2.0, true, "x"};
  const auto a = snap::arena_capture(p);
  const auto b = snap::arena_capture(p);
  EXPECT_TRUE(snap::diff(a, b).empty());
  EXPECT_TRUE(snap::diff(a, b, 1).empty());
}

TEST(Diff, PrimitiveFieldChangeNamesThePath) {
  Plain p{1, 2.0, true, "x"};
  const auto before = snap::arena_capture(p);
  p.i = 42;
  const auto after = snap::arena_capture(p);
  auto ds = snap::diff(before, after);
  ASSERT_EQ(ds.size(), 1u);
  EXPECT_EQ(ds[0].path, "root.i");
  EXPECT_EQ(ds[0].before, "1");
  EXPECT_EQ(ds[0].after, "42");
}

TEST(Diff, MultipleChangesAllReported) {
  Plain p{1, 2.0, true, "x"};
  const auto before = snap::arena_capture(p);
  p.i = 2;
  p.s = "y";
  auto ds = snap::diff(before, snap::arena_capture(p));
  ASSERT_EQ(ds.size(), 2u);
  EXPECT_EQ(ds[0].path, "root.i");
  EXPECT_EQ(ds[1].path, "root.s");
}

TEST(Diff, LimitCapsReportedDifferences) {
  std::vector<int> v(20, 0);
  const auto before = snap::arena_capture(v);
  for (auto& x : v) x = 1;
  auto ds = snap::diff(before, snap::arena_capture(v), 5);
  EXPECT_EQ(ds.size(), 5u);
}

TEST(Diff, SequenceLengthChange) {
  Nested n;
  n.values = {1, 2, 3};
  const auto before = snap::arena_capture(n);
  n.values.push_back(4);
  auto ds = snap::diff(before, snap::arena_capture(n));
  ASSERT_FALSE(ds.empty());
  EXPECT_EQ(ds[0].path, "root.values.length");
}

TEST(Diff, SequenceElementPathUsesIndex) {
  Nested n;
  n.values = {1, 2, 3};
  const auto before = snap::arena_capture(n);
  n.values[1] = 9;
  auto ds = snap::diff(before, snap::arena_capture(n));
  ASSERT_EQ(ds.size(), 1u);
  EXPECT_EQ(ds[0].path, "root.values[1]");
}

TEST(Diff, PointerChainPaths) {
  LinkList l;
  l.push_front(1);
  l.push_front(2);
  const auto before = snap::arena_capture(l);
  l.head->next->value = 7;
  auto ds = snap::diff(before, snap::arena_capture(l));
  ASSERT_EQ(ds.size(), 1u);
  EXPECT_EQ(ds[0].path, "root.head->.next->.value");
}

TEST(Diff, NullVsNonNullPointer) {
  LinkList l;
  const auto before = snap::arena_capture(l);
  l.push_front(5);
  auto ds = snap::diff(before, snap::arena_capture(l));
  ASSERT_FALSE(ds.empty());
  // head changed from nullptr to a pointer (and size changed too).
  bool saw_head = false;
  for (const auto& d : ds) saw_head |= d.path == "root.head";
  EXPECT_TRUE(saw_head);
}

TEST(Diff, CyclicGraphsTerminate) {
  Ring a, b;
  a.insert(1);
  a.insert(2);
  b.insert(1);
  b.insert(3);
  auto ds = snap::diff(snap::arena_capture(a), snap::arena_capture(b));
  ASSERT_FALSE(ds.empty());
  EXPECT_NE(ds[0].path.find("root.entry"), std::string::npos);
}

TEST(Diff, SharingOnlyDifferenceIsNamedGenerically) {
  // Equal values, different sharing: the alias points at the owned pointee
  // in one graph and at an equal external object in the other.
  Plain external{5, 0, false, ""};
  AliasPair shared_pair;
  shared_pair.owner = std::make_unique<Plain>(Plain{5, 0, false, ""});
  shared_pair.alias = shared_pair.owner.get();
  AliasPair split_pair;
  split_pair.owner = std::make_unique<Plain>(Plain{5, 0, false, ""});
  split_pair.alias = &external;
  auto ds = snap::diff(snap::arena_capture(shared_pair),
                       snap::arena_capture(split_pair));
  ASSERT_EQ(ds.size(), 1u);
  EXPECT_EQ(snap::to_string(ds[0]),
            "root: (different pointer sharing) != (different pointer sharing)");
}

TEST(Diff, LeafKindChangeIsADifference) {
  // Equal bits, different leaf kinds: a signed and an unsigned 5 differ.
  const std::int32_t si = 5;
  const std::uint32_t ui = 5;
  auto ds = snap::diff(snap::arena_capture(si), snap::arena_capture(ui));
  ASSERT_EQ(ds.size(), 1u);
  EXPECT_EQ(snap::to_string(ds[0]), "root: 5 != 5");
}

TEST(Diff, ArityChangeIsNotDescended) {
  int x = 1;
  int y = 2;
  auto ds = snap::diff(snap::arena_capture(std::tie(x)),
                       snap::arena_capture(std::tie(x, y)));
  ASSERT_EQ(ds.size(), 1u);
  EXPECT_EQ(snap::to_string(ds[0]),
            "root: std::tuple{...} != std::tuple{...}");
}

TEST(Diff, EmptyCheckpointHasNoRoot) {
  const snap::ArenaSnapshot empty;
  auto ds = snap::diff(empty, snap::arena_capture(5));
  ASSERT_EQ(ds.size(), 1u);
  EXPECT_EQ(snap::to_string(ds[0]), "root: (none) != 5");
}

TEST(Diff, RecordedInCampaignMarks) {
  fatomic::Config cfg;
  cfg.record_diffs(true);
  fatomic::detect::Experiment exp(synthetic::workload, cfg);
  auto cls = fatomic::detect::classify(exp.run());
  const auto* r = cls.find("synthetic::Account::nonatomic_update");
  ASSERT_NE(r, nullptr);
  EXPECT_FALSE(r->example_detail.empty());
  EXPECT_NE(r->example_detail.find("value_"), std::string::npos)
      << r->example_detail;
  fatomic::weave::Runtime::instance().set_mode(fatomic::weave::Mode::Direct);
}

TEST(Diff, NotRecordedByDefault) {
  fatomic::detect::Experiment exp(synthetic::workload);
  auto cls = fatomic::detect::classify(exp.run());
  const auto* r = cls.find("synthetic::Account::nonatomic_update");
  ASSERT_NE(r, nullptr);
  EXPECT_TRUE(r->example_detail.empty());
  fatomic::weave::Runtime::instance().set_mode(fatomic::weave::Mode::Direct);
}
