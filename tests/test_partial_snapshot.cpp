// Field-granular checkpointing (snapshot/partial.hpp + the runtime's plan
// map): capture/restore only the leaves a write-set plan names, fall back to
// full snapshots on every documented soundness boundary, and honour plan
// swaps mid-campaign.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <stdexcept>
#include <vector>

#include "fatomic/common/error.hpp"
#include "fatomic/mask/masker.hpp"
#include "fatomic/snapshot/partial.hpp"
#include "fatomic/weave/invoke.hpp"
#include "fatomic/weave/macros.hpp"
#include "testing/types.hpp"

namespace snap = fatomic::snapshot;
namespace weave = fatomic::weave;
using fatomic::SnapshotError;
using testing_types::AliasPair;
using testing_types::Plain;
using testing_types::RcNode;

namespace {

snap::CheckpointPlan plan_of(std::set<std::string> capture,
                             std::set<std::string> prune = {}) {
  snap::CheckpointPlan p;
  p.partial = true;
  p.capture = std::move(capture);
  p.prune = std::move(prune);
  return p;
}

TEST(PartialSnapshot, CapturesOnlyNamedLeaves) {
  snap::ArenaPool pool;
  Plain p;
  p.i = 7;
  p.d = 2.5;
  p.s = "keep";
  const auto plan = plan_of({"i"});
  auto cp = snap::partial_capture(p, plan, pool);
  ASSERT_TRUE(cp);
  EXPECT_EQ(cp->node_count(), 1u);

  p.i = -1;  // the write the plan predicted
  snap::partial_restore(p, *cp, plan);
  EXPECT_EQ(p.i, 7);
  EXPECT_EQ(p.d, 2.5);
  EXPECT_EQ(p.s, "keep");
}

TEST(PartialSnapshot, EmptyCapturePlanIsFree) {
  // Read-only and commit-point-last methods get partial{capture=∅} plans:
  // checkpoint cost zero, restore a no-op.
  snap::ArenaPool pool;
  Plain p;
  p.s = "x";
  const auto plan = plan_of({}, {"s"});
  auto cp = snap::partial_capture(p, plan, pool);
  ASSERT_TRUE(cp);
  EXPECT_TRUE(cp->empty());
  snap::partial_restore(p, *cp, plan);  // must not throw
  EXPECT_EQ(p.s, "x");
}

TEST(PartialSnapshot, FullPlanYieldsNoCapture) {
  snap::ArenaPool pool;
  Plain p;
  snap::CheckpointPlan top;  // partial == false (⊤)
  EXPECT_FALSE(snap::partial_capture(p, top, pool));
}

TEST(PartialSnapshot, AliasedSubobjectCapturedOnce) {
  // Two paths to one Plain: the walk's alias guard must record its leaves
  // exactly once, so restore writes them exactly once.
  snap::ArenaPool pool;
  AliasPair a;
  a.owner = std::make_unique<Plain>();
  a.owner->i = 3;
  a.alias = a.owner.get();
  const auto plan = plan_of({"i"});
  auto cp = snap::partial_capture(a, plan, pool);
  ASSERT_TRUE(cp);
  EXPECT_EQ(cp->node_count(), 1u);

  a.owner->i = 99;
  snap::partial_restore(a, *cp, plan);
  EXPECT_EQ(a.owner->i, 3);
  EXPECT_EQ(a.alias->i, 3);

  // Distinct pointees are distinct leaves.
  Plain other;
  other.i = 8;
  a.alias = &other;
  auto two = snap::partial_capture(a, plan, pool);
  ASSERT_TRUE(two);
  EXPECT_EQ(two->node_count(), 2u);
}

TEST(PartialSnapshot, RcPtrCycleTerminates) {
  // a -> b -> a through shared_ptr: the alias guard must break the cycle in
  // both the capture and the restore walk.
  snap::ArenaPool pool;
  auto a = std::make_shared<RcNode>();
  auto b = std::make_shared<RcNode>();
  a->value = 1;
  b->value = 2;
  a->next = b;
  b->next = a;

  const auto plan = plan_of({"value"});
  auto cp = snap::partial_capture(*a, plan, pool);
  ASSERT_TRUE(cp);
  EXPECT_EQ(cp->node_count(), 2u);

  a->value = -1;
  b->value = -2;
  snap::partial_restore(*a, *cp, plan);
  EXPECT_EQ(a->value, 1);
  EXPECT_EQ(b->value, 2);

  b->next = {};  // break the cycle so the ring can be reclaimed
}

TEST(PartialSnapshot, PolymorphicPointeeFallsBack) {
  snap::ArenaPool pool;
  testing_types::Drawing d;
  d.title = "t";
  d.shapes.push_back(std::make_unique<testing_types::Circle>());
  // The walk cannot dispatch to the dynamic type, so reaching the Shape
  // pointer must fail the capture (caller then takes a full snapshot)...
  EXPECT_FALSE(snap::partial_capture(d, plan_of({"title"}), pool));
  // ...unless the plan proves the polymorphic subtree is not written and
  // prunes it away before the walk gets there.
  auto cp = snap::partial_capture(d, plan_of({"title"}, {"shapes"}), pool);
  ASSERT_TRUE(cp);
  EXPECT_EQ(cp->node_count(), 1u);
}

struct SetKey {
  int k = 0;
  bool operator<(const SetKey& o) const { return k < o.k; }
};
struct KeyHolder {
  std::set<SetKey> keys;
};

TEST(PartialSnapshot, ConstSetStorageFallsBack) {
  // A captured leaf that is only reachable through const storage (set
  // elements) cannot be written back in place; the capture must fail.
  snap::ArenaPool pool;
  KeyHolder h;
  h.keys.insert(SetKey{1});
  EXPECT_FALSE(snap::partial_capture(h, plan_of({"k"}), pool));
}

struct Bag {
  std::vector<Plain> items;
  int total = 0;
};

TEST(PartialSnapshot, StructuralMutationDetectedAtRestore) {
  // The plan claims the method only writes `i` leaves, but the live graph
  // grew/shrank between capture and restore — the positional walk must
  // refuse rather than silently corrupt.
  snap::ArenaPool pool;
  Bag b;
  b.items.resize(2);
  const auto plan = plan_of({"i", "total"});
  auto cp = snap::partial_capture(b, plan, pool);
  ASSERT_TRUE(cp);
  EXPECT_EQ(cp->node_count(), 3u);  // 2 x i + total

  b.items.emplace_back();  // the mutation the write set missed
  EXPECT_THROW(snap::partial_restore(b, *cp, plan), SnapshotError);

  b.items.resize(1);
  EXPECT_THROW(snap::partial_restore(b, *cp, plan), SnapshotError);
}

TEST(PartialSnapshot, OneCheckpointRestoresLeavesTwice) {
  // A retried protected call restores its one entry checkpoint after every
  // failed attempt.
  snap::ArenaPool pool;
  Bag b;
  b.items.resize(2);
  b.items[0].i = 4;
  b.items[1].i = 5;
  b.total = 9;
  const auto plan = plan_of({"i", "total"});
  const auto cp = snap::partial_capture(b, plan, pool);
  ASSERT_TRUE(cp);
  const auto mutations = {
      +[](Bag& v) {
        v.items[0].i = -1;
        v.total = 0;
      },
      +[](Bag& v) {
        v.items[1].i = 50;
        v.total = 55;
      }};
  for (const auto& mutate : mutations) {
    mutate(b);
    snap::partial_restore(b, *cp, plan);
    const auto again = snap::partial_capture(b, plan, pool);
    ASSERT_TRUE(again);
    EXPECT_TRUE(cp->equals(*again));
  }
  EXPECT_EQ(b.items[0].i, 4);
  EXPECT_EQ(b.items[1].i, 5);
  EXPECT_EQ(b.total, 9);
}

// ---- runtime integration: plans installed into the mask layer -------------

class Counter {
 public:
  /// Writes value_ then maybe throws — exactly what a partial plan that
  /// captures {value_} and prunes {log_} predicts.
  void bump(int by) {
    FAT_INVOKE(bump, [&] {
      value_ += by;
      if (by < 0) throw std::runtime_error("bump: negative");
    });
  }
  /// Unsound-plan fixture: also grows log_ before throwing, which a plan
  /// capturing only {value_} cannot roll back.
  void bump_logged(int by) {
    FAT_INVOKE(bump_logged, [&] {
      value_ += by;
      log_.push_back(by);
      if (by < 0) throw std::runtime_error("bump_logged: negative");
    });
  }
  int value() const { return value_; }
  std::size_t log_size() const { return log_.size(); }

 private:
  FAT_REFLECT_FRIEND(Counter);
  FAT_METHOD_INFO(Counter, bump);
  FAT_METHOD_INFO(Counter, bump_logged);

  int value_ = 0;
  std::vector<int> log_;
};

}  // namespace

// Deliberately after the class, like the subject layouts: partial_capture's
// trait dispatch must instantiate after this specialization.
FAT_REFLECT(Counter, FAT_FIELD(Counter, value_), FAT_FIELD(Counter, log_));

namespace {

std::shared_ptr<const weave::PlanMap> plans_for(
    const std::string& qualified, const snap::CheckpointPlan& plan) {
  auto plans = std::make_shared<weave::PlanMap>();
  (*plans)[qualified] = plan;
  return plans;
}

class PartialMaskTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto& rt = weave::Runtime::instance();
    rt.set_mode(weave::Mode::Direct);
    rt.set_wrap_predicate(nullptr);
    rt.set_checkpoint_plans(nullptr);
    rt.validate_checkpoints = false;
    rt.stats = {};
  }
  void TearDown() override { SetUp(); }

  static bool wrap_all(const weave::MethodInfo&) { return true; }
};

TEST_F(PartialMaskTest, PartialRollbackUnderMask) {
  auto& rt = weave::Runtime::instance();
  fatomic::mask::MaskedScope scope(
      &wrap_all, plans_for("Counter::bump", plan_of({"value_"}, {"log_"})));
  Counter c;
  c.bump(5);
  EXPECT_EQ(c.value(), 5);
  EXPECT_THROW(c.bump(-1), std::runtime_error);
  EXPECT_EQ(c.value(), 5) << "partial rollback must undo the write";
  EXPECT_GE(rt.stats.partial_checkpoints, 2u);
  EXPECT_EQ(rt.stats.partial_fallbacks, 0u);
  EXPECT_EQ(rt.stats.snapshots_taken, 0u) << "no full checkpoints expected";
}

TEST_F(PartialMaskTest, PartialCheckpointsReuseThePoolsSlabs) {
  // A partial checkpoint is a pooled arena capture: a later wrapped call
  // recycles the slab an earlier one returned to the runtime's pool.
  auto& rt = weave::Runtime::instance();
  fatomic::mask::MaskedScope scope(
      &wrap_all, plans_for("Counter::bump", plan_of({"value_"}, {"log_"})));
  ASSERT_FALSE(rt.validate_checkpoints);
  Counter c;
  const std::uint64_t reuses = rt.arena_pool.slab_reuses;
  c.bump(1);
  c.bump(2);
  EXPECT_GT(rt.arena_pool.slab_reuses, reuses);
  EXPECT_EQ(rt.stats.partial_checkpoints, 2u);
  EXPECT_EQ(rt.stats.snapshots_taken, 0u);
}

TEST_F(PartialMaskTest, ValidatorConfirmsSoundPlan) {
  auto& rt = weave::Runtime::instance();
  fatomic::mask::MaskedScope scope(
      &wrap_all, plans_for("Counter::bump", plan_of({"value_"}, {"log_"})),
      /*validate=*/true);
  Counter c;
  EXPECT_THROW(c.bump(-3), std::runtime_error);
  EXPECT_EQ(c.value(), 0);
  EXPECT_EQ(rt.stats.validator_divergences, 0u);
}

TEST_F(PartialMaskTest, ValidatorFlagsUnsoundPlan) {
  // The plan misses bump_logged's log_ write; the shadow full checkpoint
  // must report the incomplete restore instead of letting it pass silently.
  auto& rt = weave::Runtime::instance();
  fatomic::mask::MaskedScope scope(
      &wrap_all,
      plans_for("Counter::bump_logged", plan_of({"value_"}, {})),
      /*validate=*/true);
  Counter c;
  EXPECT_THROW(c.bump_logged(-2), std::runtime_error);
  EXPECT_EQ(c.value(), 0) << "the captured leaf still rolls back";
  EXPECT_EQ(c.log_size(), 1u) << "the missed write survives the rollback";
  EXPECT_EQ(rt.stats.validator_divergences, 1u);
}

TEST_F(PartialMaskTest, PlanSwapMidCampaignInvalidatesMemo) {
  // "Field added to the write set mid-campaign": installing a new plan map
  // must drop the per-MethodInfo memo so the next call sees the new plan.
  auto& rt = weave::Runtime::instance();
  weave::ScopedMode mode(weave::Mode::Mask);
  rt.set_wrap_predicate(&wrap_all);
  rt.set_checkpoint_plans(
      plans_for("Counter::bump", plan_of({"value_"}, {"log_"})));

  Counter c;
  c.bump(1);
  EXPECT_EQ(rt.stats.partial_checkpoints, 1u);
  EXPECT_EQ(rt.stats.snapshots_taken, 0u);

  // The analysis re-ran and collapsed bump to ⊤ (absent entry = full).
  rt.set_checkpoint_plans(std::make_shared<weave::PlanMap>());
  c.bump(1);
  EXPECT_EQ(rt.stats.partial_checkpoints, 1u) << "memo must not serve stale plans";
  EXPECT_EQ(rt.stats.snapshots_taken, 1u);

  // And back to a revised partial plan (the prune set shrank, so the walk
  // now traverses log_ without capturing it).
  rt.set_checkpoint_plans(plans_for("Counter::bump", plan_of({"value_"})));
  EXPECT_THROW(c.bump(-1), std::runtime_error);
  EXPECT_EQ(c.value(), 2);
  EXPECT_EQ(rt.stats.partial_checkpoints, 2u);

  rt.set_wrap_predicate(nullptr);
  rt.set_checkpoint_plans(nullptr);
}

}  // namespace

FAT_REFLECT(SetKey, FAT_FIELD(SetKey, k));
FAT_REFLECT(KeyHolder, FAT_FIELD(KeyHolder, keys));
FAT_REFLECT(Bag, FAT_FIELD(Bag, items), FAT_FIELD(Bag, total));
