
#include <gtest/gtest.h>

#include "fatomic/snapshot/restore.hpp"
#include "testing/decoded.hpp"
#include "testing/types.hpp"

namespace snap = fatomic::snapshot;
using namespace testing_types;

FAT_POLY(Shape, Circle);
FAT_POLY(Shape, Rect);

TEST(Capture, PrimitiveLeaves) {
  Plain p{7, 2.5, true, "abc"};
  decoded::Snapshot s = decoded::capture(p);
  ASSERT_GT(s.node_count(), 4u);
  const decoded::Node& root = s.node(s.root());
  EXPECT_EQ(root.kind, decoded::NodeKind::Object);
  ASSERT_EQ(root.children.size(), 4u);
  EXPECT_EQ(std::get<std::int64_t>(s.node(root.children[0]).value), 7);
  EXPECT_EQ(
      std::get<decoded::F64Bits>(s.node(root.children[1]).value).value(),
      2.5);
  EXPECT_EQ(std::get<bool>(s.node(root.children[2]).value), true);
  EXPECT_EQ(std::get<std::string_view>(s.node(root.children[3]).value), "abc");
}

TEST(Capture, EqualValuesProduceEqualSnapshots) {
  Plain a{1, 2.0, false, "x"};
  Plain b{1, 2.0, false, "x"};
  EXPECT_TRUE(decoded::capture(a).equals(decoded::capture(b)));
}

TEST(Capture, DifferentValuesProduceDifferentSnapshots) {
  Plain a{1, 2.0, false, "x"};
  Plain b{1, 2.0, false, "y"};
  EXPECT_FALSE(decoded::capture(a).equals(decoded::capture(b)));
}

TEST(Capture, NestedContainers) {
  Nested n;
  n.inner = {3, 1.0, true, "in"};
  n.values = {1, 2, 3};
  n.table = {{"a", 1}, {"b", 2}};
  n.opt = 9;
  decoded::Snapshot s1 = decoded::capture(n);
  decoded::Snapshot s2 = decoded::capture(n);
  EXPECT_TRUE(s1.equals(s2));

  n.table["c"] = 3;
  EXPECT_FALSE(s1.equals(decoded::capture(n)));
}

TEST(Capture, OptionalEngagementMatters) {
  Nested a, b;
  a.opt = 0;
  b.opt = std::nullopt;
  EXPECT_FALSE(decoded::capture(a).equals(decoded::capture(b)));
}

TEST(Capture, NullAndNonNullPointersDiffer) {
  AliasPair a;
  a.owner = std::make_unique<Plain>();
  AliasPair b;
  EXPECT_FALSE(decoded::capture(a).equals(decoded::capture(b)));
}

TEST(Capture, SharedPointeeBecomesSharedNode) {
  AliasPair p;
  p.owner = std::make_unique<Plain>(Plain{5, 0, false, ""});
  p.alias = p.owner.get();
  decoded::Snapshot s = decoded::capture(p);
  const decoded::Node& root = s.node(s.root());
  const decoded::Node& owner_edge = s.node(root.children[0]);
  const decoded::Node& alias_edge = s.node(root.children[1]);
  ASSERT_EQ(owner_edge.kind, decoded::NodeKind::Pointer);
  ASSERT_EQ(alias_edge.kind, decoded::NodeKind::Pointer);
  EXPECT_EQ(owner_edge.pointee, alias_edge.pointee);
  EXPECT_TRUE(owner_edge.owned_edge);
  EXPECT_FALSE(alias_edge.owned_edge);
}

TEST(Capture, AliasStructureIsPartOfEquality) {
  // Same values, different sharing: alias at owner vs alias at an external
  // object with identical contents.
  Plain external{5, 0, false, ""};
  AliasPair shared_pair;
  shared_pair.owner = std::make_unique<Plain>(Plain{5, 0, false, ""});
  shared_pair.alias = shared_pair.owner.get();
  AliasPair split_pair;
  split_pair.owner = std::make_unique<Plain>(Plain{5, 0, false, ""});
  split_pair.alias = &external;
  EXPECT_FALSE(
      decoded::capture(shared_pair).equals(decoded::capture(split_pair)));
}

TEST(Capture, OwnedRawChain) {
  LinkList l;
  l.push_front(1);
  l.push_front(2);
  decoded::Snapshot s1 = decoded::capture(l);
  LinkList l2;
  l2.push_front(1);
  l2.push_front(2);
  EXPECT_TRUE(s1.equals(decoded::capture(l2)));
  l2.push_front(3);
  EXPECT_FALSE(s1.equals(decoded::capture(l2)));
}

TEST(Capture, CyclicGraphTerminates) {
  Ring r;
  r.insert(1);
  r.insert(2);
  r.insert(3);
  decoded::Snapshot s = decoded::capture(r);
  EXPECT_GT(s.node_count(), 3u);
  // A second identical ring captures identically.
  Ring r2;
  r2.insert(1);
  r2.insert(2);
  r2.insert(3);
  EXPECT_TRUE(s.equals(decoded::capture(r2)));
}

TEST(Capture, CycleLengthMatters) {
  Ring a, b;
  a.insert(1);
  b.insert(1);
  b.insert(1);
  EXPECT_FALSE(decoded::capture(a).equals(decoded::capture(b)));
}

TEST(Capture, RcPtrChains) {
  RcList l;
  l.push_front(10);
  l.push_front(20);
  RcList m;
  m.push_front(10);
  m.push_front(20);
  EXPECT_TRUE(decoded::capture(l).equals(decoded::capture(m)));
  m.head->value = 99;
  EXPECT_FALSE(decoded::capture(l).equals(decoded::capture(m)));
}

TEST(Capture, SharedPtrDiamond) {
  SharedDiamond d;
  d.left = std::make_shared<Plain>(Plain{1, 0, false, ""});
  d.right = d.left;
  decoded::Snapshot s = decoded::capture(d);
  const decoded::Node& root = s.node(s.root());
  EXPECT_EQ(s.node(root.children[0]).pointee, s.node(root.children[1]).pointee);

  SharedDiamond split;
  split.left = std::make_shared<Plain>(Plain{1, 0, false, ""});
  split.right = std::make_shared<Plain>(Plain{1, 0, false, ""});
  EXPECT_FALSE(s.equals(decoded::capture(split)));
}

TEST(Capture, PolymorphicDynamicTypeDispatch) {
  Drawing d;
  auto c = std::make_unique<Circle>();
  c->id = 1;
  c->radius = 2.0;
  d.shapes.push_back(std::move(c));
  auto r = std::make_unique<Rect>();
  r->id = 2;
  r->w = 3.0;
  r->h = 4.0;
  d.shapes.push_back(std::move(r));
  d.title = "two shapes";

  decoded::Snapshot s = decoded::capture(d);
  // Find the two object nodes created through the poly registry.
  int circles = 0, rects = 0;
  for (const auto& n : s.nodes()) {
    if (std::string_view(n.type_name) == "testing_types::Circle") ++circles;
    if (std::string_view(n.type_name) == "testing_types::Rect") ++rects;
  }
  EXPECT_EQ(circles, 1);
  EXPECT_EQ(rects, 1);
}

TEST(Capture, PolymorphicDynamicTypeIsPartOfEquality) {
  Drawing a, b;
  auto c = std::make_unique<Circle>();
  c->id = 1;
  a.shapes.push_back(std::move(c));
  auto r = std::make_unique<Rect>();
  r->id = 1;
  b.shapes.push_back(std::move(r));
  EXPECT_FALSE(decoded::capture(a).equals(decoded::capture(b)));
}

TEST(Capture, TupleRoots) {
  Plain p{1, 0, false, "a"};
  int extra = 5;
  auto root = std::tie(p, extra);
  decoded::Snapshot s1 = decoded::capture(root);
  extra = 6;
  decoded::Snapshot s2 = decoded::capture(root);
  EXPECT_FALSE(s1.equals(s2));
}

TEST(Snapshot, ToStringMentionsStructure) {
  Plain p{1, 2.0, false, "x"};
  std::string dump = decoded::capture(p).to_string();
  EXPECT_NE(dump.find("testing_types::Plain"), std::string::npos);
  EXPECT_NE(dump.find("prim"), std::string::npos);
}

TEST(Capture, EnumAndUnsignedPrimitives) {
  struct Local {
    unsigned u;
    char c;
  };
  // Not reflected: capture members individually through a tuple root.
  unsigned u = 7;
  char c = 'z';
  auto root = std::tie(u, c);
  decoded::Snapshot s = decoded::capture(root);
  const auto& rootn = s.node(s.root());
  EXPECT_EQ(std::get<std::uint64_t>(s.node(rootn.children[0]).value), 7u);
  EXPECT_EQ(std::get<char>(s.node(rootn.children[1]).value), 'z');
}
