#include "fatomic/snapshot/restore.hpp"

#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <utility>

#include "testing/types.hpp"

namespace snap = fatomic::snapshot;
using namespace testing_types;

FAT_POLY(Shape, Circle);
FAT_POLY(Shape, Rect);

namespace {

/// A link reached through shared_ptr<PolyLink>: restore re-creates its
/// registered dynamic type through the polymorphic registry.
struct PolyLink {
  virtual ~PolyLink() = default;
  int value = 0;
  std::shared_ptr<PolyLink> next;
};

struct WeightedLink : PolyLink {
  double weight = 0.0;
};

struct PolyRing {
  std::shared_ptr<PolyLink> head;
};

/// One object held both as shared_ptr<HeldBase> and as
/// shared_ptr<HeldDerived>, in either field order.
struct HeldBase {
  virtual ~HeldBase() = default;
  int id = 0;
};

struct HeldDerived : HeldBase {
  double weight = 0.0;
};

struct BaseHolderFirst {
  std::shared_ptr<HeldBase> base;
  std::shared_ptr<HeldDerived> derived;
};

struct DerivedHolderFirst {
  std::shared_ptr<HeldDerived> derived;
  std::shared_ptr<HeldBase> base;
};

/// A non-owned alias into a member of a composite map key or set element.
struct KeyedTable {
  std::map<std::pair<int, int>, int> table;
  int* alias = nullptr;
};

struct KeyedSet {
  std::set<std::pair<int, int>> keys;
  int* alias = nullptr;
};

/// A map value with a member the checkpoint does not record.
struct Tally {
  int count = 0;
  int unrecorded = 0;
};

struct TallyTable {
  std::map<int, Tally> tallies;
};

}  // namespace

FAT_REFLECT(WeightedLink, FAT_FIELD(WeightedLink, value),
            FAT_FIELD(WeightedLink, next), FAT_FIELD(WeightedLink, weight));
FAT_REFLECT(PolyRing, FAT_FIELD(PolyRing, head));
FAT_POLY(PolyLink, WeightedLink);
FAT_REFLECT(HeldDerived, FAT_FIELD(HeldDerived, id),
            FAT_FIELD(HeldDerived, weight));
FAT_REFLECT(BaseHolderFirst, FAT_FIELD(BaseHolderFirst, base),
            FAT_FIELD(BaseHolderFirst, derived));
FAT_REFLECT(DerivedHolderFirst, FAT_FIELD(DerivedHolderFirst, derived),
            FAT_FIELD(DerivedHolderFirst, base));
FAT_POLY(HeldBase, HeldDerived);
FAT_REFLECT(KeyedTable, FAT_FIELD(KeyedTable, table),
            FAT_FIELD(KeyedTable, alias));
FAT_REFLECT(KeyedSet, FAT_FIELD(KeyedSet, keys), FAT_FIELD(KeyedSet, alias));
FAT_REFLECT(Tally, FAT_FIELD(Tally, count));
FAT_REFLECT(TallyTable, FAT_FIELD(TallyTable, tallies));

namespace {

/// Opens the two-node ring head -> next -> head so both nodes are reclaimed
/// when their last owner goes.
template <class Node>
void open_ring(const std::shared_ptr<Node>& head) {
  if (head && head->next) head->next->next.reset();
}

/// Capture, mutate and restore a holder pair of one HeldDerived: the two
/// holders must share one restored object again.
template <class Holders>
void restore_mixed_holders() {
  Holders h;
  const auto obj = std::make_shared<HeldDerived>();
  obj->id = 1;
  obj->weight = 0.5;
  h.base = obj;
  h.derived = obj;
  const snap::ArenaSnapshot before = snap::arena_capture(h);
  obj->id = 9;
  h.base = std::make_shared<HeldDerived>();
  ASSERT_FALSE(before.equals(snap::arena_capture(h)));
  snap::restore(h, before);
  ASSERT_NE(h.derived, nullptr);
  EXPECT_EQ(h.base.get(), h.derived.get());
  EXPECT_EQ(h.derived.use_count(), 2);
  EXPECT_EQ(h.derived->id, 1);
  EXPECT_EQ(h.derived->weight, 0.5);
  EXPECT_TRUE(before.equals(snap::arena_capture(h)));
}

/// Capture, mutate via `mutate`, restore, and check the graph round-trips.
template <class T, class Mutate>
void roundtrip(T& value, Mutate&& mutate) {
  const snap::ArenaSnapshot before = snap::arena_capture(value);
  mutate(value);
  ASSERT_FALSE(before.equals(snap::arena_capture(value)))
      << "mutation must be visible to the snapshot";
  snap::restore(value, before);
  EXPECT_TRUE(before.equals(snap::arena_capture(value)))
      << "restore must reproduce the checkpointed object graph";
}

/// One checkpoint, several rollbacks, as a retried protected call makes
/// them: capture once, then apply each mutation in turn and restore from
/// that same checkpoint after it.
template <class T, class... Mutate>
void restore_repeatedly(const snap::ArenaSnapshot& cp, T& value,
                        Mutate&&... mutate) {
  (
      [&] {
        mutate(value);
        ASSERT_FALSE(cp.equals(snap::arena_capture(value)))
            << "mutation must be visible to the snapshot";
        snap::restore(value, cp);
        EXPECT_TRUE(cp.equals(snap::arena_capture(value)))
            << "every restore from one checkpoint reproduces it";
      }(),
      ...);
}

}  // namespace

TEST(Restore, Primitives) {
  Plain p{7, 2.5, true, "abc"};
  roundtrip(p, [](Plain& v) {
    v.i = -1;
    v.d = 0.0;
    v.b = false;
    v.s = "mutated";
  });
  EXPECT_EQ(p.i, 7);
  EXPECT_EQ(p.s, "abc");
}

TEST(Restore, ContainersGrowAndShrink) {
  Nested n;
  n.values = {1, 2, 3};
  n.table = {{"a", 1}};
  roundtrip(n, [](Nested& v) {
    v.values.push_back(4);
    v.table["b"] = 2;
  });
  EXPECT_EQ(n.values.size(), 3u);
  EXPECT_EQ(n.table.size(), 1u);

  roundtrip(n, [](Nested& v) {
    v.values.clear();
    v.table.clear();
  });
  EXPECT_EQ(n.values.size(), 3u);
  EXPECT_EQ(n.table.at("a"), 1);
}

TEST(Restore, OptionalEngagement) {
  Nested n;
  n.opt = 5;
  roundtrip(n, [](Nested& v) { v.opt.reset(); });
  EXPECT_EQ(n.opt, 5);

  Nested m;  // starts disengaged
  roundtrip(m, [](Nested& v) { v.opt = 1; });
  EXPECT_FALSE(m.opt.has_value());
}

TEST(Restore, UniquePtrReallocatesPointee) {
  AliasPair p;
  p.owner = std::make_unique<Plain>(Plain{5, 0, false, "keep"});
  roundtrip(p, [](AliasPair& v) { v.owner->i = 99; });
  EXPECT_EQ(p.owner->i, 5);
  EXPECT_EQ(p.owner->s, "keep");
}

TEST(Restore, UniquePtrNullTransitions) {
  AliasPair p;
  p.owner = std::make_unique<Plain>(Plain{5, 0, false, ""});
  roundtrip(p, [](AliasPair& v) { v.owner.reset(); });
  ASSERT_NE(p.owner, nullptr);
  EXPECT_EQ(p.owner->i, 5);

  AliasPair q;  // starts null
  roundtrip(q, [](AliasPair& v) {
    v.owner = std::make_unique<Plain>(Plain{1, 0, false, ""});
  });
  EXPECT_EQ(q.owner, nullptr);
}

TEST(Restore, AliasSharingPreserved) {
  AliasPair p;
  p.owner = std::make_unique<Plain>(Plain{5, 0, false, ""});
  p.alias = p.owner.get();
  const snap::ArenaSnapshot before = snap::arena_capture(p);
  p.owner->i = 42;
  p.alias = nullptr;
  snap::restore(p, before);
  EXPECT_EQ(p.alias, p.owner.get()) << "alias must re-point at the restored owner";
  EXPECT_EQ(p.owner->i, 5);
}

TEST(Restore, OwnedRawChain) {
  LinkList l;
  l.push_front(1);
  l.push_front(2);
  roundtrip(l, [](LinkList& v) {
    v.push_front(3);
    v.head->value = -7;
  });
  EXPECT_EQ(l.size, 2);
  ASSERT_NE(l.head, nullptr);
  EXPECT_EQ(l.head->value, 2);
  ASSERT_NE(l.head->next, nullptr);
  EXPECT_EQ(l.head->next->value, 1);
  EXPECT_EQ(l.head->next->next, nullptr);
}

TEST(Restore, OwnedRawChainFromEmpty) {
  LinkList l;
  roundtrip(l, [](LinkList& v) {
    v.push_front(1);
    v.push_front(2);
  });
  EXPECT_EQ(l.head, nullptr);
  EXPECT_EQ(l.size, 0);
}

TEST(Restore, CyclicOwnedGraph) {
  Ring r;
  r.insert(1);
  r.insert(2);
  r.insert(3);
  roundtrip(r, [](Ring& v) { v.insert(4); });
  EXPECT_EQ(r.count, 3);
  // Walk the ring: must be cyclic with period 3.
  RingNode* n = r.entry;
  ASSERT_NE(n, nullptr);
  EXPECT_EQ(n->next->next->next, n);
}

TEST(Restore, RingClearedAndRestored) {
  Ring r;
  r.insert(10);
  r.insert(20);
  roundtrip(r, [](Ring& v) { v.clear(); });
  EXPECT_EQ(r.count, 2);
  ASSERT_NE(r.entry, nullptr);
  EXPECT_EQ(r.entry->next->next, r.entry);
}

TEST(Restore, RcPtrChain) {
  RcList l;
  l.push_front(1);
  l.push_front(2);
  roundtrip(l, [](RcList& v) {
    v.head->value = 0;
    v.push_front(3);
  });
  EXPECT_EQ(l.size, 2);
  EXPECT_EQ(l.head->value, 2);
  EXPECT_EQ(l.head->next->value, 1);
  EXPECT_EQ(l.head->next->next, nullptr);
}

TEST(Restore, SharedPtrPolymorphicRingRestores) {
  PolyRing r;
  auto a = std::make_shared<WeightedLink>();
  auto b = std::make_shared<WeightedLink>();
  a->value = 1;
  a->weight = 0.5;
  b->value = 2;
  b->weight = 1.5;
  a->next = b;
  b->next = a;
  r.head = a;
  const snap::ArenaSnapshot before = snap::arena_capture(r);
  b->weight = -1.0;
  a->value = 9;
  ASSERT_FALSE(before.equals(snap::arena_capture(r)));
  snap::restore(r, before);
  EXPECT_TRUE(before.equals(snap::arena_capture(r)));
  EXPECT_NE(r.head, a);
  EXPECT_EQ(r.head->next->next, r.head);
  const auto* second = dynamic_cast<const WeightedLink*>(r.head->next.get());
  EXPECT_NE(second, nullptr) << "restore must re-create the dynamic type";
  if (second != nullptr) {
    EXPECT_EQ(second->weight, 1.5);
  }
  open_ring(r.head);
  open_ring(a);
}

TEST(Restore, SharedChainRollbackReleasesReplacedPointees) {
  // The reclamation the paper adds reference counting for: the graph a
  // rollback throws away is freed, not leaked.
  RcList l;
  l.push_front(1);
  l.push_front(2);
  const snap::ArenaSnapshot before = snap::arena_capture(l);
  l.push_front(3);
  const std::weak_ptr<RcNode> old_head = l.head;
  const std::weak_ptr<RcNode> old_tail = l.head->next->next;
  snap::restore(l, before);
  EXPECT_TRUE(old_head.expired());
  EXPECT_TRUE(old_tail.expired());
  EXPECT_TRUE(before.equals(snap::arena_capture(l)));
}

TEST(Restore, SharedPtrBaseAndDerivedHoldersShareOnePointee) {
  restore_mixed_holders<BaseHolderFirst>();
  restore_mixed_holders<DerivedHolderFirst>();
}

TEST(Restore, SharedPtrSharingPreserved) {
  SharedDiamond d;
  d.left = std::make_shared<Plain>(Plain{1, 0, false, ""});
  d.right = d.left;
  const snap::ArenaSnapshot before = snap::arena_capture(d);
  d.right = std::make_shared<Plain>(Plain{2, 0, false, ""});
  d.left->i = 99;
  snap::restore(d, before);
  EXPECT_EQ(d.left.get(), d.right.get()) << "diamond sharing must survive restore";
  EXPECT_EQ(d.left->i, 1);
  EXPECT_EQ(d.left.use_count(), 2);
}

TEST(Restore, PolymorphicPointees) {
  Drawing d;
  auto c = std::make_unique<Circle>();
  c->id = 1;
  c->radius = 3.0;
  d.shapes.push_back(std::move(c));
  roundtrip(d, [](Drawing& v) {
    v.shapes.clear();
    auto r = std::make_unique<Rect>();
    r->id = 9;
    v.shapes.push_back(std::move(r));
  });
  ASSERT_EQ(d.shapes.size(), 1u);
  auto* restored = dynamic_cast<Circle*>(d.shapes[0].get());
  ASSERT_NE(restored, nullptr) << "restore must re-create the dynamic type";
  EXPECT_EQ(restored->radius, 3.0);
}

TEST(Restore, ExternalAliasRestoredInPlace) {
  // alias points at an object outside the owner edge: restore writes the
  // checkpointed state back through the captured address.
  Plain external{5, 0, false, "ext"};
  AliasPair p;
  p.alias = &external;
  const snap::ArenaSnapshot before = snap::arena_capture(p);
  external.i = 77;
  external.s = "changed";
  snap::restore(p, before);
  EXPECT_EQ(p.alias, &external);
  EXPECT_EQ(external.i, 5);
  EXPECT_EQ(external.s, "ext");
}

TEST(Restore, OneCheckpointRestoresAnOwnedRawChainTwice) {
  LinkList l;
  l.push_front(1);
  l.push_front(2);
  const snap::ArenaSnapshot cp = snap::arena_capture(l);
  restore_repeatedly(
      cp, l,
      [](LinkList& v) {
        v.push_front(3);
        v.head->value = -7;
      },
      [](LinkList& v) {
        v.head->next->value = 42;
        v.size = 0;
      });
  EXPECT_EQ(l.size, 2);
  ASSERT_NE(l.head, nullptr);
  EXPECT_EQ(l.head->value, 2);
  ASSERT_NE(l.head->next, nullptr);
  EXPECT_EQ(l.head->next->value, 1);
  EXPECT_EQ(l.head->next->next, nullptr);
}

TEST(Restore, OneCheckpointRestoresASharedPtrRingTwice) {
  PolyRing r;
  auto a = std::make_shared<WeightedLink>();
  auto b = std::make_shared<WeightedLink>();
  a->value = 1;
  b->value = 2;
  a->next = b;
  b->next = a;
  r.head = a;
  const snap::ArenaSnapshot cp = snap::arena_capture(r);
  std::shared_ptr<PolyLink> first_restore;
  restore_repeatedly(
      cp, r, [](PolyRing& v) { v.head->next->value = 9; },
      [&](PolyRing& v) {
        first_restore = v.head;  // replaced by the second restore
        v.head->value = -1;
        v.head->next->next = nullptr;
      });
  EXPECT_NE(r.head, first_restore);
  EXPECT_EQ(r.head->value, 1);
  EXPECT_EQ(r.head->next->value, 2);
  EXPECT_EQ(r.head->next->next, r.head);
  open_ring(r.head);
  open_ring(a);
}

TEST(Restore, OneCheckpointRestoresAPolymorphicPointeeTwice) {
  Drawing d;
  auto c = std::make_unique<Circle>();
  c->id = 1;
  c->radius = 3.0;
  d.shapes.push_back(std::move(c));
  const snap::ArenaSnapshot cp = snap::arena_capture(d);
  restore_repeatedly(
      cp, d,
      [](Drawing& v) {
        v.shapes.clear();
        v.shapes.push_back(std::make_unique<Rect>());
      },
      [](Drawing& v) { static_cast<Circle&>(*v.shapes[0]).radius = 0.5; });
  ASSERT_EQ(d.shapes.size(), 1u);
  const auto* restored = dynamic_cast<const Circle*>(d.shapes[0].get());
  ASSERT_NE(restored, nullptr) << "restore must re-create the dynamic type";
  EXPECT_EQ(restored->radius, 3.0);
}

TEST(Restore, OneCheckpointRestoresAnExternalAliasTwice) {
  // The external pointee is written back through the address recorded at
  // capture, before either restore ran.
  Plain external{5, 0, false, "ext"};
  Plain other{6, 0, false, "other"};
  AliasPair p;
  p.alias = &external;
  const snap::ArenaSnapshot cp = snap::arena_capture(p);
  restore_repeatedly(
      cp, p,
      [&](AliasPair& v) {
        external.i = 77;
        v.owner = std::make_unique<Plain>();
      },
      [&](AliasPair& v) {
        external.s = "changed";
        v.alias = &other;
      });
  EXPECT_EQ(p.alias, &external);
  EXPECT_EQ(p.owner, nullptr);
  EXPECT_EQ(external.i, 5);
  EXPECT_EQ(external.s, "ext");
  EXPECT_EQ(other.i, 6);
}

TEST(Restore, AliasIntoACompositeMapKeyFollowsTheRestoredKey) {
  // Every record inside a key must register at its in-map address, not at
  // a temporary the key was built in.
  KeyedTable t;
  t.table[{1, 2}] = 3;
  t.alias = const_cast<int*>(&t.table.begin()->first.first);
  const snap::ArenaSnapshot cp = snap::arena_capture(t);
  t.table[{0, 0}] = 9;
  t.alias = nullptr;
  snap::restore(t, cp);
  ASSERT_EQ(t.table.size(), 1u);
  EXPECT_EQ(t.alias, &t.table.begin()->first.first);
  EXPECT_EQ(*t.alias, 1);
  EXPECT_TRUE(cp.equals(snap::arena_capture(t)));
}

TEST(Restore, AliasIntoACompositeSetElementFollowsTheRestoredElement) {
  KeyedSet k;
  k.keys = {{4, 5}, {6, 7}};
  k.alias = const_cast<int*>(&std::next(k.keys.begin())->second);
  const snap::ArenaSnapshot cp = snap::arena_capture(k);
  k.keys.insert({0, 1});
  snap::restore(k, cp);
  ASSERT_EQ(k.keys.size(), 2u);
  EXPECT_EQ(k.alias, &std::next(k.keys.begin())->second);
  EXPECT_EQ(*k.alias, 7);
  EXPECT_TRUE(cp.equals(snap::arena_capture(k)));
}

TEST(Restore, MapEntriesStartFromValueInitializedValues) {
  // Restore may reuse the live map's nodes, but every entry starts from a
  // value-initialized value, as a freshly built entry would.
  TallyTable t;
  t.tallies[1].count = 5;
  const snap::ArenaSnapshot cp = snap::arena_capture(t);
  t.tallies[1].unrecorded = 7;
  t.tallies[2].count = 1;
  snap::restore(t, cp);
  ASSERT_EQ(t.tallies.size(), 1u);
  EXPECT_EQ(t.tallies.at(1).count, 5);
  EXPECT_EQ(t.tallies.at(1).unrecorded, 0);
}

TEST(Restore, TupleRootRestoresArguments) {
  Plain p{1, 0, false, "a"};
  int arg = 10;
  auto root = std::tie(p, arg);
  const snap::ArenaSnapshot before = snap::arena_capture(root);
  p.i = 2;
  arg = 20;
  snap::restore(root, before);
  EXPECT_EQ(p.i, 1);
  EXPECT_EQ(arg, 10);
}

TEST(Restore, IdempotentOnUnchangedObject) {
  Nested n;
  n.values = {1, 2};
  n.table = {{"k", 1}};
  const snap::ArenaSnapshot before = snap::arena_capture(n);
  snap::restore(n, before);
  snap::restore(n, before);
  EXPECT_TRUE(before.equals(snap::arena_capture(n)));
}

TEST(Restore, MismatchedSnapshotThrows) {
  Plain p;
  Nested n;
  const snap::ArenaSnapshot s = snap::arena_capture(p);
  EXPECT_THROW(snap::restore(n, s), fatomic::SnapshotError);
}
