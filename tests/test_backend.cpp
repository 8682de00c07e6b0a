// Checkpoint encoder tests.  The golden witness (tests/golden/, frozen from
// the node-table walker the arena encoder replaced) pins the exact table
// every capture must decode to — aliases, cycles, polymorphism, the sliced
// fallback, float bit patterns and one driven receiver per subject family —
// and the mutation cases check that compare sees each change and restore
// undoes it.  Also hosts the snapshot-layer regression tests for the alias
// map, bitwise float identity and restore exception safety.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <new>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "fatomic/detect/campaign.hpp"
#include "fatomic/report/json.hpp"
#include "fatomic/snapshot/arena.hpp"
#include "fatomic/snapshot/backend.hpp"
#include "fatomic/snapshot/partial.hpp"
#include "fatomic/snapshot/restore.hpp"
#include "testing/decoded.hpp"
#include "testing/types.hpp"
#include "testing/witness.hpp"

namespace snap = fatomic::snapshot;
using namespace testing_types;

FAT_POLY(Shape, Circle);
FAT_POLY(Shape, Rect);

namespace {

/// The decoded capture of `value` must reproduce the committed witness
/// `name` line for line, field names and float bits included.
template <class T>
void expect_witness(const T& value, const std::string& name) {
  const std::string expected = witness::golden(name);
  ASSERT_FALSE(expected.empty()) << "missing tests/golden/" << name << ".txt";
  EXPECT_EQ(witness::dump(decoded::capture(value)), expected)
      << "decoded capture diverges from the witness " << name;
}

/// A mutation must flip the compare verdict, and restoring the checkpoint
/// must bring the live graph back to a byte-identical capture.
template <class T, class Mutate>
void expect_mutation_detected(T& value, Mutate&& mutate) {
  const snap::ArenaSnapshot before = snap::arena_capture(value);
  mutate(value);
  EXPECT_FALSE(before.equals(snap::arena_capture(value)));
  snap::restore(value, before);
  EXPECT_TRUE(before.equals(snap::arena_capture(value)))
      << "restore must reproduce the checkpointed graph";
}

const std::vector<std::string> kWitnessCases = {
    "plain", "nested", "floats", "floats32", "link_list", "alias_pair",
    "ring", "rc_list", "rc_ring", "shared_diamond", "drawing",
    "sliced_zoo", "first_member", "collections_rbmap", "xml_document",
    "regexp", "selfstar_chain", "net_server"};

/// Every witness fixture, captured and decoded once per test binary.
const std::vector<std::pair<std::string, std::string>>& decoded_cases() {
  static const auto cases =
      witness::cases([](const auto& v) { return decoded::capture(v); });
  return cases;
}

}  // namespace

// ---------------------------------------------------------------------------
// Golden witness: the decoded records reproduce the frozen node tables.

class GoldenWitness : public ::testing::TestWithParam<std::string> {};

TEST_P(GoldenWitness, DecodeReproducesFrozenTable) {
  const std::string expected = witness::golden(GetParam());
  ASSERT_FALSE(expected.empty())
      << "missing tests/golden/" << GetParam() << ".txt";
  for (const auto& [name, decoded] : decoded_cases())
    if (name == GetParam()) {
      EXPECT_EQ(decoded, expected);
      return;
    }
  FAIL() << "no witness fixture named " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    AllFixtures, GoldenWitness, ::testing::ValuesIn(kWitnessCases),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

TEST(GoldenWitnessCases, ListCoversEveryFixture) {
  std::set<std::string> built;
  for (const auto& c : decoded_cases()) built.insert(c.first);
  EXPECT_EQ(built, std::set<std::string>(kWitnessCases.begin(),
                                         kWitnessCases.end()));
}

// ---------------------------------------------------------------------------
// Parity with the witness, plus mutation detection and restore: aliases,
// cycles, polymorphism.

TEST(BackendParity, PrimitivesAndContainers) {
  Nested n;
  witness::fill(n);
  expect_witness(n, "nested");
  expect_mutation_detected(n, [](Nested& v) { v.table["k"] = 9; });
  EXPECT_EQ(n.table["k"], 1);
}

TEST(BackendParity, RawPointerAliases) {
  AliasPair ap;
  witness::fill(ap);
  expect_witness(ap, "alias_pair");
  expect_mutation_detected(ap, [](AliasPair& v) { v.owner->i = 99; });
  EXPECT_EQ(ap.alias->i, 1);
}

TEST(BackendParity, OwnedPointerCycle) {
  Ring ring;
  witness::fill(ring);
  expect_witness(ring, "ring");
  expect_mutation_detected(ring, [](Ring& v) { v.entry->value = -1; });
}

TEST(BackendParity, RcPtrSharingAndCycles) {
  RcList list;
  witness::fill(list);
  expect_witness(list, "rc_list");

  // Close the list into a cycle: head -> a -> head.
  auto tail = list.head->next;
  tail->next = list.head;
  expect_witness(list, "rc_ring");
  expect_mutation_detected(list, [](RcList& v) { v.head->value = 7; });
  // restore rebuilt the ring out of fresh nodes; break both the old ring
  // (still pinned by `tail`) and the restored one so refcounts reach zero.
  tail->next.reset();
  list.head->next->next.reset();
}

TEST(BackendParity, SharedPtrDiamond) {
  SharedDiamond d;
  witness::fill(d);
  expect_witness(d, "shared_diamond");
  expect_mutation_detected(d, [](SharedDiamond& v) { v.right->s = "bent"; });
  EXPECT_EQ(d.left->s, "shared");
}

TEST(BackendParity, RegisteredPolymorphicPointees) {
  Drawing dr;
  witness::fill(dr);
  expect_witness(dr, "drawing");
  expect_mutation_detected(dr, [](Drawing& v) {
    static_cast<Circle*>(v.shapes[0].get())->radius = 9.0;
  });
}

TEST(BackendParity, UnregisteredPolymorphicSlicedFallback) {
  witness_types::Zoo zoo;
  witness::fill(zoo);
  expect_witness(zoo, "sliced_zoo");

  // The slice only sees Creature::legs.
  const snap::ArenaSnapshot a = snap::arena_capture(zoo);
  static_cast<witness_types::Spider*>(zoo.star.get())->venomous = false;
  EXPECT_TRUE(a.equals(snap::arena_capture(zoo)))
      << "derived-only state must be invisible to the sliced capture";
  zoo.star->legs = 6;
  EXPECT_FALSE(a.equals(snap::arena_capture(zoo)));
}

// ---------------------------------------------------------------------------
// The one compare: byte identity of the record streams.

TEST(ArenaCompare, MemcmpDecidesEqualAndSizeMismatch) {
  Nested n;
  n.values = {1, 2, 3};
  n.inner.s = "steady";
  const snap::ArenaSnapshot a = snap::arena_capture(n);
  EXPECT_TRUE(a.equals(snap::arena_capture(n)));

  n.inner.s = "longer than before";  // string payload changes the slab size
  const snap::ArenaSnapshot c = snap::arena_capture(n);
  ASSERT_NE(a.byte_size(), c.byte_size());
  EXPECT_FALSE(a.equals(c));
}

TEST(ArenaCompare, SameSizeMismatchFallsBackStructurally) {
  // A same-length byte mismatch is conclusive on its own; the decoded
  // tables, the structural oracle, must agree that the graphs differ.
  Plain p{1, 2.0, true, "x"};
  const snap::ArenaSnapshot a = snap::arena_capture(p);
  p.i = 2;  // same slab length, different bytes
  const snap::ArenaSnapshot b = snap::arena_capture(p);
  ASSERT_EQ(a.byte_size(), b.byte_size());
  EXPECT_FALSE(a.equals(b));
  EXPECT_FALSE(decoded::decode(a).equals(decoded::decode(b)));
}

TEST(ArenaPool, SlabsAreRecycledAcrossCaptures) {
  snap::ArenaPool pool;
  Plain p{5, 1.5, false, "pooled"};
  {
    snap::ArenaSnapshot first = snap::arena_capture(p, &pool);
    EXPECT_GT(first.byte_size(), 0u);
  }  // destructor returns the slab to the pool
  { snap::ArenaSnapshot second = snap::arena_capture(p, &pool); }
  EXPECT_EQ(pool.captures, 2u);
  EXPECT_GE(pool.slab_reuses, 1u);
}

// ---------------------------------------------------------------------------
// Satellite regressions.

TEST(AliasKeyRegression, ArenaMapKeepsSameAddressDifferentTagDistinct) {
  // The arena's open-addressing map hashes the address alone; equality must
  // still split same-address entries by tag, including growth rehashing.
  snap::detail::ArenaSeenMap map;
  const int probe = 0;
  const void* addr = &probe;
  snap::NodeId* outer = map.find_or_insert(addr, "Outer");
  ASSERT_EQ(*outer, snap::kInvalidNode);
  *outer = 0;
  snap::NodeId* inner = map.find_or_insert(addr, "Inner");
  ASSERT_EQ(*inner, snap::kInvalidNode) << "tag must disambiguate";
  *inner = 1;
  // Force several growth cycles, then re-probe the original keys.
  std::vector<int> filler(500);
  for (int& f : filler) {
    snap::NodeId* s = map.find_or_insert(&f, "int");
    *s = 2;
  }
  EXPECT_EQ(*map.find_or_insert(addr, "Outer"), 0u);
  EXPECT_EQ(*map.find_or_insert(addr, "Inner"), 1u);
  EXPECT_EQ(map.size(), 502u);
}

TEST(AliasKeyRegression, FirstMemberSharesAddressWithOwner) {
  witness_types::Outer o;
  witness::fill(o);
  decoded::Snapshot s = decoded::capture(o);
  // Outer + inner + two primitives; a conflated alias map would collapse the
  // inner object into a self-reference.
  EXPECT_EQ(s.node_count(), 4u);
  expect_witness(o, "first_member");
  expect_mutation_detected(o, [](witness_types::Outer& v) {
    v.inner.x = -1;
  });
}

TEST(BitwiseFloats, NanIsStableStateOnBothBackends) {
  // NaN != NaN as a value, but as *state* an unchanged NaN must compare
  // equal — otherwise every injection through a NaN field reads non-atomic.
  // Both representations must agree: the slab bytes and the decoded view.
  std::vector<Plain> floats;
  witness::fill_floats(floats);
  expect_witness(floats, "floats");
  Plain p{0, std::numeric_limits<double>::quiet_NaN(), false, ""};
  EXPECT_TRUE(decoded::capture(p).equals(decoded::capture(p)));
  EXPECT_TRUE(snap::arena_capture(p).equals(snap::arena_capture(p)));
}

TEST(BitwiseFloats, SignedZeroAndDenormalsDistinguished) {
  Plain pos{0, 0.0, false, ""};
  Plain neg{0, -0.0, false, ""};
  // 0.0 == -0.0 as values; as bit-state they differ, in the slab and in
  // the decoded view alike.
  EXPECT_FALSE(decoded::capture(pos).equals(decoded::capture(neg)));
  EXPECT_FALSE(snap::arena_capture(pos).equals(snap::arena_capture(neg)));

  Plain denorm{0, std::numeric_limits<double>::denorm_min(), false, ""};
  EXPECT_FALSE(decoded::capture(pos).equals(decoded::capture(denorm)));
}

TEST(BitwiseFloats, NanRoundTripsThroughRestore) {
  Plain p{1, -0.0, false, "nan"};
  const snap::ArenaSnapshot before = snap::arena_capture(p);
  p.d = 3.25;
  snap::restore(p, before);
  EXPECT_TRUE(std::signbit(p.d));
  EXPECT_EQ(p.d, 0.0);

  p.d = std::numeric_limits<double>::quiet_NaN();
  const snap::ArenaSnapshot nan_state = snap::arena_capture(p);
  p.d = 0.0;
  snap::restore(p, nan_state);
  EXPECT_TRUE(std::isnan(p.d));
}

namespace float_types {

/// One leaf per float state that a widening or canonicalizing copy loses.
struct FloatLeaves {
  double nan = 0.0;
  double neg_zero = 0.0;
  float denorm = 0.0f;
};

}  // namespace float_types

FAT_REFLECT(float_types::FloatLeaves,
            FAT_FIELD(float_types::FloatLeaves, nan),
            FAT_FIELD(float_types::FloatLeaves, neg_zero),
            FAT_FIELD(float_types::FloatLeaves, denorm));

TEST(BitwiseFloats, PartialPlanRestoresBitExactly) {
  // Partial checkpoints record their leaves as arena records too, so a NaN
  // payload, -0.0 and a float denormal come back bit for bit.
  const std::uint64_t nan_bits = 0x7FF8'0000'0000'1234ull;
  const std::uint64_t neg_zero_bits = std::bit_cast<std::uint64_t>(-0.0);
  const std::uint32_t denorm_bits =
      std::bit_cast<std::uint32_t>(std::numeric_limits<float>::denorm_min());
  float_types::FloatLeaves f;
  f.nan = std::bit_cast<double>(nan_bits);
  f.neg_zero = -0.0;
  f.denorm = std::numeric_limits<float>::denorm_min();
  snap::CheckpointPlan plan;
  plan.partial = true;
  plan.capture = {"nan", "neg_zero", "denorm"};
  snap::ArenaPool pool;
  auto cp = snap::partial_capture(f, plan, pool);
  ASSERT_TRUE(cp);
  EXPECT_EQ(cp->node_count(), 3u);

  f.nan = 1.0;
  f.neg_zero = 0.0;
  f.denorm = 0.0f;
  snap::partial_restore(f, *cp, plan);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(f.nan), nan_bits);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(f.neg_zero), neg_zero_bits);
  EXPECT_EQ(std::bit_cast<std::uint32_t>(f.denorm), denorm_bits);
}

namespace fragile_types {

/// Allocator that can be armed to fail: models rollback hitting OOM.
template <class T>
struct ThrowingAlloc {
  using value_type = T;
  static inline bool armed = false;
  ThrowingAlloc() = default;
  template <class U>
  ThrowingAlloc(const ThrowingAlloc<U>&) {}
  T* allocate(std::size_t n) {
    if (armed) throw std::bad_alloc();
    return std::allocator<T>{}.allocate(n);
  }
  void deallocate(T* p, std::size_t n) {
    std::allocator<T>{}.deallocate(p, n);
  }
  friend bool operator==(const ThrowingAlloc&, const ThrowingAlloc&) {
    return true;
  }
};

struct Fragile {
  std::vector<int, ThrowingAlloc<int>> values;
};

}  // namespace fragile_types

FAT_REFLECT(fragile_types::Fragile,
            FAT_FIELD(fragile_types::Fragile, values));

TEST(RestoreSafety, MidReplayAllocationFailureRaisesRestoreError) {
  fragile_types::Fragile f;
  f.values = {1, 2, 3};
  const snap::ArenaSnapshot before = snap::arena_capture(f);
  f.values.clear();
  f.values.shrink_to_fit();  // force restore to reallocate

  fragile_types::ThrowingAlloc<int>::armed = true;
  EXPECT_THROW(snap::restore(f, before), fatomic::RestoreError);
  fragile_types::ThrowingAlloc<int>::armed = false;

  // Once allocation works again the same snapshot must restore cleanly.
  snap::restore(f, before);
  EXPECT_EQ(f.values.size(), 3u);
  EXPECT_TRUE(before.equals(snap::arena_capture(f)));
}

TEST(RestoreSafety, RestoreErrorIsDistinctFromSnapshotError) {
  // Callers need to tell "rollback failed, state suspect" apart from
  // ordinary capture errors; the type hierarchy carries that distinction.
  static_assert(std::is_base_of_v<fatomic::SnapshotError, fatomic::RestoreError>);
  static_assert(std::is_base_of_v<fatomic::FatomicError, fatomic::RestoreError>);
  try {
    throw fatomic::RestoreError("boom");
  } catch (const fatomic::SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("boom"), std::string::npos);
  }
}

namespace owned_chain {

/// Every live Box and Leaf: its address and its serial, the object's
/// identity.  The counting check that a failed restore leaks nothing and
/// frees nothing an alias still reaches.
std::map<const void*, std::uint64_t> g_live;
std::uint64_t g_serial = 0;

/// The serial of the object living at `p`, 0 when none does.  A freed
/// object's address may go to a fresh one; its serial never does.
std::uint64_t serial_at(const void* p) {
  const auto it = g_live.find(p);
  return it == g_live.end() ? 0 : it->second;
}

/// Leaf construction countdown, disarmed (0) by default: armed at k, the
/// k-th Leaf constructed from then on throws, as an allocation that fails
/// mid-replay would.
int g_leaf_countdown = 0;

struct Leaf {
  Leaf() {
    if (g_leaf_countdown != 0 && --g_leaf_countdown == 0)
      throw std::bad_alloc();
    g_live[this] = ++g_serial;
  }
  ~Leaf() { g_live.erase(this); }
  int value = 0;
};

struct Box {
  Box() { g_live[this] = ++g_serial; }
  ~Box() { g_live.erase(this); }
  std::unique_ptr<Leaf> leaf;
};

struct BoxRoot {
  std::unique_ptr<Box> box;
};

/// An alias into the box's leaf, replayed before `later`.
struct AliasRoot {
  std::unique_ptr<Box> box;
  Leaf* alias = nullptr;  // not owned
  std::unique_ptr<Leaf> later;
};

/// Aliases into the pointees a replay drops before `later`: unique_ptr
/// elements of a sequence, unique_ptr values of a map, and a pointee whose
/// last owner is a shared_ptr field.
struct SequenceRoot {
  std::vector<std::unique_ptr<Leaf>> leaves;
  Leaf* alias = nullptr;  // not owned
  std::unique_ptr<Leaf> later;
};

struct MapRoot {
  std::map<int, std::unique_ptr<Leaf>> leaves;
  Leaf* alias = nullptr;  // not owned
  std::unique_ptr<Leaf> later;
};

struct SharedRoot {
  std::shared_ptr<Leaf> leaf;
  Leaf* alias = nullptr;  // not owned
  std::unique_ptr<Leaf> later;
};

/// Restores `root` from `cp` with its `k`-th Leaf construction failing, and
/// expects the alias, whose fixup a failed replay never runs, to reach the
/// Leaf it reached before: the same object, not only a live one at the
/// same address.
template <class Root>
void expect_alias_outlives_failed_restore(Root& root,
                                          const snap::ArenaSnapshot& cp,
                                          int k) {
  const std::uint64_t aliased = serial_at(root.alias);
  ASSERT_NE(aliased, 0u);
  g_leaf_countdown = k;
  EXPECT_THROW(snap::restore(root, cp), fatomic::RestoreError);
  g_leaf_countdown = 0;
  EXPECT_EQ(serial_at(root.alias), aliased)
      << "the half-restored graph's alias reaches a freed Leaf";
}

/// Frees the Leafs of `before` (address and serial, taken before a failed
/// restore) that still live as themselves but that `owned` no longer holds:
/// the restore cut them loose.
void free_cut_loose(const std::map<Leaf*, std::uint64_t>& before,
                    const std::set<const Leaf*>& owned) {
  for (const auto& [leaf, serial] : before)
    if (serial_at(leaf) == serial && owned.count(leaf) == 0) delete leaf;
}

}  // namespace owned_chain

FAT_REFLECT(owned_chain::Leaf, FAT_FIELD(owned_chain::Leaf, value));
FAT_REFLECT(owned_chain::Box, FAT_FIELD(owned_chain::Box, leaf));
FAT_REFLECT(owned_chain::BoxRoot, FAT_FIELD(owned_chain::BoxRoot, box));
FAT_REFLECT(owned_chain::AliasRoot, FAT_FIELD(owned_chain::AliasRoot, box),
            FAT_FIELD(owned_chain::AliasRoot, alias),
            FAT_FIELD(owned_chain::AliasRoot, later));
FAT_REFLECT(owned_chain::SequenceRoot,
            FAT_FIELD(owned_chain::SequenceRoot, leaves),
            FAT_FIELD(owned_chain::SequenceRoot, alias),
            FAT_FIELD(owned_chain::SequenceRoot, later));
FAT_REFLECT(owned_chain::MapRoot, FAT_FIELD(owned_chain::MapRoot, leaves),
            FAT_FIELD(owned_chain::MapRoot, alias),
            FAT_FIELD(owned_chain::MapRoot, later));
FAT_REFLECT(owned_chain::SharedRoot, FAT_FIELD(owned_chain::SharedRoot, leaf),
            FAT_FIELD(owned_chain::SharedRoot, alias),
            FAT_FIELD(owned_chain::SharedRoot, later));

// A restore that fails inside a fresh unique_ptr pointee's replay must not
// leak it: the pointee is owned before it is replayed.  The replaced box is
// reclaimed only when the restore completes, so the test frees it.
TEST(RestoreSafety, FailedUniquePointeeReplayLeaksNothing) {
  using namespace owned_chain;
  g_live.clear();
  {
    BoxRoot root;
    root.box = std::make_unique<Box>();
    root.box->leaf = std::make_unique<Leaf>();
    const snap::ArenaSnapshot cp = snap::arena_capture(root);
    Box* const old = root.box.get();
    g_leaf_countdown = 1;  // the replay's first Leaf throws
    EXPECT_THROW(snap::restore(root, cp), fatomic::RestoreError);
    g_leaf_countdown = 0;
    if (root.box.get() != old) delete old;  // cut loose by the restore
  }
  EXPECT_TRUE(g_live.empty()) << g_live.size() << " objects outlived the root";
}

// A failed restore skips its deletions, so a half-restored graph's alias
// into a replaced unique_ptr pointee still reaches a live object.
TEST(RestoreSafety, FailedReplayFreesNoPointeeAnAliasReaches) {
  using namespace owned_chain;
  g_live.clear();
  {
    AliasRoot root;
    root.box = std::make_unique<Box>();
    root.box->leaf = std::make_unique<Leaf>();
    root.alias = root.box->leaf.get();
    root.later = std::make_unique<Leaf>();
    const snap::ArenaSnapshot cp = snap::arena_capture(root);
    Box* const old_box = root.box.get();
    Leaf* const old_later = root.later.get();
    g_leaf_countdown = 2;  // the box's Leaf replays, `later`'s throws
    EXPECT_THROW(snap::restore(root, cp), fatomic::RestoreError);
    g_leaf_countdown = 0;
    EXPECT_EQ(g_live.count(root.alias), 1u)
        << "the half-restored graph's alias reaches a freed Leaf";
    // Free what the restore cut loose.
    if (root.box.get() != old_box) delete old_box;
    if (root.later.get() != old_later) delete old_later;
  }
  EXPECT_TRUE(g_live.empty()) << g_live.size() << " objects outlived the root";
}

// vector::clear frees the replaced unique_ptr elements unless the replay
// parks them: the alias must still reach its element after `later` fails.
TEST(RestoreSafety, FailedReplayKeepsSequenceElementsAnAliasReaches) {
  using namespace owned_chain;
  g_live.clear();
  {
    SequenceRoot root;
    root.leaves.push_back(std::make_unique<Leaf>());
    root.leaves.push_back(std::make_unique<Leaf>());
    root.alias = root.leaves.back().get();
    root.later = std::make_unique<Leaf>();
    const snap::ArenaSnapshot cp = snap::arena_capture(root);
    std::map<Leaf*, std::uint64_t> before;
    for (Leaf* leaf : {root.leaves[0].get(), root.leaves[1].get(),
                       root.later.get()})
      before[leaf] = serial_at(leaf);
    // Both elements replay; `later`'s Leaf throws.
    expect_alias_outlives_failed_restore(root, cp, 3);
    std::set<const Leaf*> owned = {root.later.get()};
    for (const auto& leaf : root.leaves) owned.insert(leaf.get());
    free_cut_loose(before, owned);
  }
  EXPECT_TRUE(g_live.empty()) << g_live.size() << " objects outlived the root";
}

// A reused map node's value is reset, and the nodes the checkpoint no longer
// holds, or that a throwing replay did not reach, are destroyed with the old
// map: the replay parks the unique_ptr values of all of them, so an alias
// into any one still reaches its Leaf.
TEST(RestoreSafety, FailedReplayKeepsMapValuesAnAliasReaches) {
  using namespace owned_chain;
  struct Case {
    const char* what;
    int target;     // the key whose Leaf the alias reaches
    int countdown;  // 3: `later`'s Leaf throws; 2: the second entry's does
  };
  for (const Case& c : {Case{"reused entry", 1, 3},
                        Case{"left-over entry", 3, 3},
                        Case{"entry the replay did not reach", 3, 2}}) {
    SCOPED_TRACE(c.what);
    g_live.clear();
    {
      MapRoot root;
      root.leaves[1] = std::make_unique<Leaf>();
      root.leaves[2] = std::make_unique<Leaf>();
      root.alias = root.leaves[1].get();  // the fixup a failed replay skips
      root.later = std::make_unique<Leaf>();
      const snap::ArenaSnapshot cp = snap::arena_capture(root);
      root.leaves[3] = std::make_unique<Leaf>();  // not in the checkpoint
      root.alias = root.leaves[c.target].get();
      std::map<Leaf*, std::uint64_t> before = {
          {root.later.get(), serial_at(root.later.get())}};
      for (const auto& [key, leaf] : root.leaves)
        before[leaf.get()] = serial_at(leaf.get());
      expect_alias_outlives_failed_restore(root, cp, c.countdown);
      std::set<const Leaf*> owned = {root.later.get()};
      for (const auto& [key, leaf] : root.leaves) owned.insert(leaf.get());
      free_cut_loose(before, owned);
    }
    EXPECT_TRUE(g_live.empty())
        << g_live.size() << " objects outlived the root";
  }
}

// A shared_ptr field that is its pointee's last owner frees it when the
// replay assigns the fresh pointee, unless the replay parks the old holder.
// A failed restore hands its parked holders to keep_for_life, so the old
// Leaf outlives the root as well, for the rest of the process.
TEST(RestoreSafety, FailedReplayKeepsSharedPointeeAnAliasReaches) {
  using namespace owned_chain;
  g_live.clear();
  const Leaf* kept = nullptr;
  std::uint64_t kept_serial = 0;
  {
    SharedRoot root;
    root.leaf = std::make_shared<Leaf>();
    root.alias = root.leaf.get();
    root.later = std::make_unique<Leaf>();
    const snap::ArenaSnapshot cp = snap::arena_capture(root);
    kept = root.leaf.get();
    kept_serial = serial_at(kept);
    const std::map<Leaf*, std::uint64_t> before = {
        {root.later.get(), serial_at(root.later.get())}};
    // The fresh shared Leaf replays; `later`'s Leaf throws.
    expect_alias_outlives_failed_restore(root, cp, 2);
    free_cut_loose(before, {root.later.get()});
  }
  ASSERT_EQ(g_live.size(), 1u) << "objects outlived the root";
  EXPECT_EQ(serial_at(kept), kept_serial);
}

TEST(CampaignJson, StatsCarryArenaAndRestoreCounters) {
  fatomic::detect::Campaign campaign;
  campaign.stats.arena_bytes = 4;
  campaign.stats.restore_errors = 1;
  const std::string json = fatomic::report::campaign_json(campaign);
  EXPECT_NE(json.find("\"arena_bytes\":4"), std::string::npos);
  EXPECT_NE(json.find("\"restore_errors\":1"), std::string::npos);
}

TEST(CheckpointRepresentation, RunMetadataReportsArena) {
  EXPECT_STREQ(snap::to_string(snap::default_backend()), "arena");
}
