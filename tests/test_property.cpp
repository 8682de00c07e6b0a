// Property-based tests: randomized object graphs and mutation sequences,
// checking the core snapshot invariants the detection and masking phases
// rely on:
//   P1  capture is deterministic: two captures of an unchanged graph are equal
//   P2  any effective mutation changes the snapshot (no false atomics)
//   P3  restore after arbitrary mutations reproduces the original graph
//       (no false non-atomics after masking)
//   P4  the byte compare agrees with equality of the decoded tables
#include <gtest/gtest.h>

#include <random>

#include "fatomic/snapshot/restore.hpp"
#include "testing/decoded.hpp"
#include "testing/types.hpp"

namespace snap = fatomic::snapshot;
using namespace testing_types;

namespace {

/// A composite world covering all pointer/container shapes at once.
struct World {
  Nested nested;
  LinkList list;
  Ring ring;
  RcList rc;
  AliasPair alias_pair;
};

}  // namespace

FAT_REFLECT(World, FAT_FIELD(World, nested), FAT_FIELD(World, list),
            FAT_FIELD(World, ring), FAT_FIELD(World, rc),
            FAT_FIELD(World, alias_pair));

namespace {

/// Applies one random mutation; returns true when the object graph changed.
bool mutate_once(World& w, std::mt19937& rng) {
  switch (rng() % 12) {
    case 0:
      w.nested.values.push_back(static_cast<int>(rng() % 100));
      return true;
    case 1:
      if (w.nested.values.empty()) return false;
      w.nested.values.pop_back();
      return true;
    case 2:
      w.nested.table["k" + std::to_string(rng() % 8)] =
          static_cast<int>(rng() % 100);
      return true;  // insert or overwrite; may be a no-op if value repeats
    case 3:
      w.nested.opt = static_cast<int>(rng() % 100);
      return true;
    case 4:
      if (!w.nested.opt.has_value()) return false;
      w.nested.opt.reset();
      return true;
    case 5:
      w.list.push_front(static_cast<int>(rng() % 100));
      return true;
    case 6:
      if (w.list.head == nullptr) return false;
      w.list.head->value += 1;
      return true;
    case 7:
      w.ring.insert(static_cast<int>(rng() % 100));
      return true;
    case 8:
      if (w.ring.entry == nullptr) return false;
      w.ring.clear();
      return true;
    case 9:
      w.rc.push_front(static_cast<int>(rng() % 100));
      return true;
    case 10:
      w.alias_pair.owner =
          std::make_unique<Plain>(Plain{static_cast<int>(rng() % 100), 0.5,
                                        true, "p"});
      w.alias_pair.alias = (rng() % 2) ? w.alias_pair.owner.get() : nullptr;
      return true;
    case 11:
      w.nested.inner.s += "x";
      return true;
  }
  return false;
}

void populate(World& w, std::mt19937& rng, int ops) {
  for (int i = 0; i < ops; ++i) mutate_once(w, rng);
}

class SnapshotProperty : public ::testing::TestWithParam<unsigned> {};

}  // namespace

TEST_P(SnapshotProperty, CaptureIsDeterministic) {
  std::mt19937 rng(GetParam());
  World w;
  populate(w, rng, 30);
  decoded::Snapshot a = decoded::capture(w);
  decoded::Snapshot b = decoded::capture(w);
  EXPECT_TRUE(a.equals(b));
}

TEST_P(SnapshotProperty, EffectiveMutationsAreVisible) {
  std::mt19937 rng(GetParam() + 1000);
  World w;
  populate(w, rng, 10);
  for (int i = 0; i < 20; ++i) {
    const snap::ArenaSnapshot before = snap::arena_capture(w);
    // Case 2 can overwrite a map slot with an identical value, which is a
    // graph no-op: a mutation is effective when the decoded tables differ.
    bool mutated = mutate_once(w, rng);
    const snap::ArenaSnapshot after = snap::arena_capture(w);
    const bool effective =
        !decoded::decode(before).equals(decoded::decode(after));
    EXPECT_EQ(before.equals(after), !effective)
        << "the byte compare must see exactly the effective mutations";
    if (!mutated) {
      EXPECT_FALSE(effective) << "a reported no-op must not change the graph";
    }
  }
}

TEST_P(SnapshotProperty, RestoreRoundTripsArbitraryMutations) {
  std::mt19937 rng(GetParam() + 2000);
  World w;
  populate(w, rng, 25);
  const snap::ArenaSnapshot checkpoint = snap::arena_capture(w);
  populate(w, rng, 25);  // arbitrary further damage
  snap::restore(w, checkpoint);
  const snap::ArenaSnapshot after = snap::arena_capture(w);
  EXPECT_TRUE(checkpoint.equals(after))
      << "restore must reproduce the checkpointed graph\nbefore:\n"
      << decoded::decode(checkpoint).to_string() << "\nafter:\n"
      << decoded::decode(after).to_string();
}

TEST_P(SnapshotProperty, RestoreIsIdempotent) {
  std::mt19937 rng(GetParam() + 3000);
  World w;
  populate(w, rng, 15);
  const snap::ArenaSnapshot checkpoint = snap::arena_capture(w);
  populate(w, rng, 5);
  snap::restore(w, checkpoint);
  snap::restore(w, checkpoint);
  EXPECT_TRUE(checkpoint.equals(snap::arena_capture(w)));
}

TEST_P(SnapshotProperty, RepeatedCheckpointRestoreCycles) {
  std::mt19937 rng(GetParam() + 4000);
  World w;
  for (int cycle = 0; cycle < 5; ++cycle) {
    populate(w, rng, 8);
    const snap::ArenaSnapshot cp = snap::arena_capture(w);
    populate(w, rng, 8);
    snap::restore(w, cp);
    ASSERT_TRUE(cp.equals(snap::arena_capture(w))) << "cycle " << cycle;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SnapshotProperty, ::testing::Range(0u, 16u));
