// Edge-case coverage for the snapshot engine: every supported type shape,
// kind mismatches, deep and wide graphs, and the documented limitation
// boundaries.
#include <gtest/gtest.h>

#include <array>
#include <deque>
#include <list>
#include <map>
#include <set>

#include "fatomic/snapshot/restore.hpp"
#include "testing/decoded.hpp"
#include "testing/types.hpp"

namespace snap = fatomic::snapshot;
using testing_types::Plain;

namespace {

enum class Flavour : std::uint8_t { Vanilla = 0, Chocolate = 7, Mint = 200 };

struct Exotic {
  unsigned char byte = 0;
  signed char sbyte = 0;
  short s = 0;
  unsigned long long big = 0;
  float f = 0.0f;
  Flavour flavour = Flavour::Vanilla;
  std::deque<int> dq;
  std::list<std::string> names;
  std::array<int, 3> fixed{};
  std::set<int> uniq;
  std::multiset<int> multi;
  std::multimap<std::string, int> mm;
  std::pair<int, std::string> pr;
  std::vector<bool> bits;
  std::optional<std::vector<int>> maybe_vec;
};

}  // namespace

FAT_REFLECT(Exotic, FAT_FIELD(Exotic, byte), FAT_FIELD(Exotic, sbyte),
            FAT_FIELD(Exotic, s), FAT_FIELD(Exotic, big),
            FAT_FIELD(Exotic, f), FAT_FIELD(Exotic, flavour),
            FAT_FIELD(Exotic, dq), FAT_FIELD(Exotic, names),
            FAT_FIELD(Exotic, fixed), FAT_FIELD(Exotic, uniq),
            FAT_FIELD(Exotic, multi), FAT_FIELD(Exotic, mm),
            FAT_FIELD(Exotic, pr), FAT_FIELD(Exotic, bits),
            FAT_FIELD(Exotic, maybe_vec));

namespace {

Exotic make_exotic() {
  Exotic e;
  e.byte = 200;
  e.sbyte = -100;
  e.s = -12345;
  e.big = 0xFFFFFFFFFFFFFFFEull;
  e.f = 1.5f;
  e.flavour = Flavour::Mint;
  e.dq = {1, 2, 3};
  e.names = {"alpha", "beta"};
  e.fixed = {7, 8, 9};
  e.uniq = {5, 1, 3};
  e.multi = {2, 2, 4};
  e.mm = {{"k", 1}, {"k", 2}, {"z", 3}};
  e.pr = {42, "pair"};
  e.bits = {true, false, true, true};
  e.maybe_vec = std::vector<int>{10, 20};
  return e;
}

}  // namespace

TEST(SnapshotEdge, ExoticTypesRoundTrip) {
  Exotic e = make_exotic();
  const snap::ArenaSnapshot before = snap::arena_capture(e);

  // Damage every field.
  e.byte = 0;
  e.sbyte = 1;
  e.s = 2;
  e.big = 3;
  e.f = 0.0f;
  e.flavour = Flavour::Vanilla;
  e.dq.clear();
  e.names.push_back("gamma");
  e.fixed = {0, 0, 0};
  e.uniq.insert(99);
  e.multi.erase(2);
  e.mm.clear();
  e.pr = {0, ""};
  e.bits = {false};
  e.maybe_vec.reset();
  ASSERT_FALSE(before.equals(snap::arena_capture(e)));

  snap::restore(e, before);
  EXPECT_TRUE(before.equals(snap::arena_capture(e)));
  EXPECT_EQ(e.byte, 200);
  EXPECT_EQ(e.sbyte, -100);
  EXPECT_EQ(e.s, -12345);
  EXPECT_EQ(e.big, 0xFFFFFFFFFFFFFFFEull);
  EXPECT_EQ(e.f, 1.5f);
  EXPECT_EQ(e.flavour, Flavour::Mint);
  EXPECT_EQ(e.dq, (std::deque<int>{1, 2, 3}));
  EXPECT_EQ(e.names.back(), "beta");
  EXPECT_EQ(e.fixed, (std::array<int, 3>{7, 8, 9}));
  EXPECT_EQ(e.uniq.count(3), 1u);
  EXPECT_EQ(e.multi.count(2), 2u);
  EXPECT_EQ(e.mm.count("k"), 2u);
  EXPECT_EQ(e.pr.second, "pair");
  EXPECT_EQ(e.bits, (std::vector<bool>{true, false, true, true}));
  ASSERT_TRUE(e.maybe_vec.has_value());
  EXPECT_EQ(*e.maybe_vec, (std::vector<int>{10, 20}));
}

TEST(SnapshotEdge, EnumValuesDistinguished) {
  Exotic a = make_exotic();
  Exotic b = make_exotic();
  b.flavour = Flavour::Chocolate;
  EXPECT_FALSE(decoded::capture(a).equals(decoded::capture(b)));
}

TEST(SnapshotEdge, MultisetMultiplicityMatters) {
  Exotic a = make_exotic();
  Exotic b = make_exotic();
  b.multi.insert(2);  // {2,2,2,4} vs {2,2,4}
  EXPECT_FALSE(decoded::capture(a).equals(decoded::capture(b)));
}

TEST(SnapshotEdge, VectorBoolBitsMatter) {
  Exotic a = make_exotic();
  Exotic b = make_exotic();
  b.bits[1] = true;
  EXPECT_FALSE(decoded::capture(a).equals(decoded::capture(b)));
}

TEST(SnapshotEdge, DeepRecursiveChain) {
  testing_types::LinkList l;
  for (int i = 0; i < 2000; ++i) l.push_front(i);
  const snap::ArenaSnapshot s = snap::arena_capture(l);
  EXPECT_GT(s.node_count(), 4000u);
  l.push_front(-1);
  snap::restore(l, s);
  EXPECT_EQ(l.size, 2000);
  EXPECT_EQ(l.head->value, 1999);
}

TEST(SnapshotEdge, WideGraph) {
  std::vector<Plain> wide(5000);
  for (std::size_t i = 0; i < wide.size(); ++i)
    wide[i].i = static_cast<int>(i);
  const snap::ArenaSnapshot s = snap::arena_capture(wide);
  wide[4999].i = -1;
  EXPECT_FALSE(s.equals(snap::arena_capture(wide)));
  snap::restore(wide, s);
  EXPECT_EQ(wide[4999].i, 4999);
}

TEST(SnapshotEdge, EmptyContainersVsMissing) {
  std::vector<int> empty_vec;
  std::vector<int> one{0};
  EXPECT_FALSE(decoded::capture(empty_vec).equals(decoded::capture(one)));
  std::optional<int> none;
  std::optional<int> zero = 0;
  EXPECT_FALSE(decoded::capture(none).equals(decoded::capture(zero)));
}

TEST(SnapshotEdge, StringContentAndLength) {
  std::string a = "abc";
  std::string b = "abd";
  std::string c = "abcd";
  decoded::Snapshot sa = decoded::capture(a);
  EXPECT_FALSE(sa.equals(decoded::capture(b)));
  EXPECT_FALSE(sa.equals(decoded::capture(c)));
  std::string embedded_nul1 = std::string("a\0b", 3);
  std::string embedded_nul2 = std::string("a\0c", 3);
  EXPECT_FALSE(decoded::capture(embedded_nul1)
                   .equals(decoded::capture(embedded_nul2)));
}

TEST(SnapshotEdge, SignednessDistinguishedByKind) {
  // An int64 5 and a uint64 5 are different leaf kinds (different variant
  // alternatives), which keeps comparisons exact across the type system.
  std::int32_t si = 5;
  std::uint32_t ui = 5;
  EXPECT_FALSE(decoded::capture(si).equals(decoded::capture(ui)));
}

TEST(SnapshotEdge, RestoreMismatchedContainerKindThrows) {
  std::vector<int> vec{1, 2};
  std::map<std::string, int> map_{{"a", 1}};
  const snap::ArenaSnapshot s = snap::arena_capture(vec);
  EXPECT_THROW(snap::restore(map_, s), fatomic::SnapshotError);
}

TEST(SnapshotEdge, RestoreArraySizeMismatchThrows) {
  std::array<int, 3> three{1, 2, 3};
  std::array<int, 4> four{};
  const snap::ArenaSnapshot s = snap::arena_capture(three);
  // Same node kind (Sequence) but wrong arity.
  EXPECT_THROW(snap::restore(four, s), fatomic::SnapshotError);
}

namespace {
struct SelfRef {
  int v = 0;
  SelfRef* me = nullptr;  // non-owning alias, possibly to self
};
}  // namespace
FAT_REFLECT(SelfRef, FAT_FIELD(SelfRef, v), FAT_FIELD(SelfRef, me));

TEST(SnapshotEdge, SelfReferentialAliasRoundTrips) {
  SelfRef s;
  s.v = 9;
  s.me = &s;
  const snap::ArenaSnapshot cp = snap::arena_capture(s);
  s.v = 0;
  s.me = nullptr;
  snap::restore(s, cp);
  EXPECT_EQ(s.v, 9);
  EXPECT_EQ(s.me, &s) << "self-alias must point back at the restored object";
  // And the self-loop vs null distinction is part of graph equality.
  SelfRef t;
  t.v = 9;
  EXPECT_FALSE(cp.equals(snap::arena_capture(t)));
}

TEST(SnapshotEdge, UnchangedAfterReadOnlyTraversal) {
  Exotic e = make_exotic();
  decoded::Snapshot s1 = decoded::capture(e);
  decoded::Snapshot s2 = decoded::capture(e);
  decoded::Snapshot s3 = decoded::capture(e);
  EXPECT_TRUE(s1.equals(s2));
  EXPECT_TRUE(s2.equals(s3));
}

TEST(SnapshotEdge, NodeDumpIsStable) {
  Exotic e = make_exotic();
  decoded::Snapshot s = decoded::capture(e);
  EXPECT_EQ(s.to_string(), decoded::capture(e).to_string());
}
