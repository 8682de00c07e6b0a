// Field-granular checkpointing (Pass 3 consumer): capture/restore only the
// primitive leaves a method's static write set names, instead of deep-copying
// the whole receiver graph (the paper's deep_copy, Listing 2 line 6).
//
// A CheckpointPlan is sound only under the write-set analysis' guarantees
// (DESIGN.md §8): every name in `capture` has a value-like declared type in
// every scanned declaration, so the method can only overwrite primitive
// leaves — never change the shape of the receiver graph.  Under that
// invariant the live graph's structure is identical at capture and restore
// time, the deterministic walk (field declaration order, container iteration
// order) visits the same leaves in the same order, and restore is a plain
// positional overwrite.  A partial checkpoint is an ordinary pooled
// ArenaSnapshot holding one primitive record per leaf (arena.hpp); restore
// reads those records back in walk order through an ArenaCursor.  Every
// assumption is still checked at runtime:
//
//  - a capture-named field that is not primitive at runtime, a polymorphic
//    pointee, or a leaf reachable only through const (set-key) storage makes
//    the *capture* fail (partial_capture returns nullopt), and the caller
//    falls back to a full snapshot;
//  - a leaf-count mismatch during *restore* — possible only if the write set
//    was unsound — throws SnapshotError instead of silently corrupting.
//
// `prune` lists member names whose subtrees provably cannot contain any
// capture name; the walk skips them entirely, which is where the checkpoint
// cost reduction comes from on deep structures.
#pragma once

#include <cstddef>
#include <optional>
#include <set>
#include <string>
#include <type_traits>

#include "fatomic/common/error.hpp"
#include "fatomic/snapshot/arena.hpp"
#include "fatomic/snapshot/restore.hpp"

namespace fatomic::snapshot {

/// Per-method checkpoint decision, computed by analyze::analyze_write_sets
/// and installed into the runtime as a weave::PlanMap.
struct CheckpointPlan {
  /// False means full checkpoint (⊤) — the runtime ignores capture/prune.
  bool partial = false;
  /// Member names the method may write before an injection point clears;
  /// each is statically value-like, so its leaves are primitives.
  std::set<std::string> capture;
  /// Member names whose subtrees statically cannot contain a capture name.
  std::set<std::string> prune;
};

/// Human-readable one-line form ("partial{capture=a,b prune=c}" / "full").
std::string to_string(const CheckpointPlan& plan);

namespace detail {

/// One walker for both directions: it chooses the leaves.  Capture emits
/// each through the arena encoder; restore replays the identical traversal
/// and overwrites leaves positionally from the captured records.
class PartialWalker {
 public:
  PartialWalker(const CheckpointPlan& plan, ArenaSeenMap& seen,
                ArenaEncoder& out)
      : plan_(plan), seen_(seen), out_(&out) {}
  PartialWalker(const CheckpointPlan& plan, ArenaSeenMap& seen,
                ArenaCursor leaves)
      : plan_(plan), seen_(seen), leaves_(leaves) {}

  bool failed() const { return failed_; }

  void finish() {
    if (!leaves_.done())
      throw SnapshotError("partial restore: leaf count mismatch (write set "
                          "missed a structural mutation?)");
  }

  template <class T>
  void visit(T& v) {
    if (failed_) return;
    using U = std::remove_cv_t<T>;
    namespace tr = traits;
    if constexpr (tr::is_primitive_v<U>) {
      // Non-captured primitives carry no plan state; captured ones are
      // handled at the field level (leaf()) before recursion gets here.
    } else if constexpr (std::is_pointer_v<U>) {
      visit_pointee(v);
    } else if constexpr (tr::is_smart_ptr_v<U>) {
      auto* p = v.get();
      visit_pointee(p);
    } else if constexpr (tr::is_optional_v<U>) {
      if (v.has_value()) visit(*v);
    } else if constexpr (tr::is_tuple_v<U>) {
      std::apply([&](auto&... elems) { (visit(elems), ...); }, v);
    } else if constexpr (tr::is_pair_v<U>) {
      if (!enter(&v, "std::pair")) return;
      visit(v.first);
      visit(v.second);
    } else if constexpr (std::is_same_v<U, std::vector<bool>>) {
      // Only anonymous bools inside — nothing a capture name can match.
    } else if constexpr (tr::is_sequence_v<U> || tr::is_std_array_v<U> ||
                         tr::is_set_v<U>) {
      if (!enter(&v, "seq")) return;
      for (auto& e : v) visit(e);
    } else if constexpr (tr::is_map_v<U>) {
      if (!enter(&v, "map")) return;
      for (auto& kv : v) {
        visit(kv.first);  // const key: leaves under it fail the capture
        visit(kv.second);
      }
    } else if constexpr (reflect::is_reflected_v<U>) {
      visit_object(v);
    } else {
      static_assert(dependent_false<U>,
                    "type is not capturable: register it with FAT_REFLECT or "
                    "use a supported container/pointer/primitive type");
    }
  }

 private:
  template <class T>
  void visit_object(T& v) {
    using U = std::remove_cv_t<T>;
    if (!enter(&v, reflect::Reflect<U>::name)) return;
    reflect::for_each_field<U>([&](const auto& f) {
      if (failed_) return;
      if (plan_.prune.count(f.name)) return;
      auto& field = v.*(f.member);
      if (plan_.capture.count(f.name)) {
        leaf(field);
      } else {
        visit(field);
      }
    });
  }

  template <class P>
  void visit_pointee(P* p) {
    using U = std::remove_cv_t<P>;
    if (p == nullptr) return;
    if constexpr (std::is_polymorphic_v<U>) {
      // The walk cannot dispatch to the dynamic type; a sliced capture
      // could miss derived-class leaves.  Fall back to a full snapshot.
      fail("polymorphic pointee");
    } else {
      visit(*p);
    }
  }

  /// Records (capture) or overwrites (restore) one named leaf.
  template <class T>
  void leaf(T& v) {
    using U = std::remove_cv_t<T>;
    if constexpr (!traits::is_primitive_v<U>) {
      // The static value-like check should make this unreachable; a runtime
      // mismatch (e.g. a colliding member name) falls back to full.
      fail("captured field is not primitive");
    } else if constexpr (std::is_const_v<T>) {
      // Leaves inside set/map keys cannot be written back in place.
      fail("captured field reachable only through const storage");
    } else if (out_ != nullptr) {
      out_->emit_primitive(v);
    } else {
      if (leaves_.done())
        throw SnapshotError("partial restore: more leaves than captured");
      if (leaves_.u8() != kRecPrim)
        throw SnapshotError("partial restore: leaf record is not a primitive");
      write_leaf(v, leaves_.prim());
    }
  }

  /// Alias/cycle guard, same keys as the capture walk.  Returns false when
  /// this object was already visited.
  bool enter(const void* addr, const char* type_name) {
    NodeId* slot = seen_.find_or_insert(addr, type_name);
    if (*slot != kInvalidNode) return false;
    *slot = 0;
    return true;
  }

  void fail(const char* why) {
    if (out_ == nullptr)
      throw SnapshotError(std::string("partial restore: ") + why);
    failed_ = true;
  }

  const CheckpointPlan& plan_;
  ArenaSeenMap& seen_;
  ArenaEncoder* out_ = nullptr;  ///< capture: the leaves' emitter
  ArenaCursor leaves_;           ///< restore: the captured leaf records
  bool failed_ = false;
};

}  // namespace detail

/// Captures the leaves `plan` names from the graph rooted at `root` into an
/// arena checkpoint from `pool`, one primitive record per leaf in walk order
/// (node_count() is the leaf count).  A non-partial plan or any walk-time
/// surprise yields nullopt — the caller must take a full arena_capture.
template <class T>
std::optional<ArenaSnapshot> partial_capture(const T& root,
                                             const CheckpointPlan& plan,
                                             ArenaPool& pool) {
  if (!plan.partial) return std::nullopt;
  ArenaSnapshot out(pool);
  detail::ArenaSeenMap& seen = pool.seen_scratch();
  ArenaEncoder enc(out, seen);
  detail::PartialWalker w(plan, seen, enc);
  // Shed the root's top-level constness so both directions instantiate the
  // same walk; genuinely-const interior storage (set keys) still fails.
  w.visit(const_cast<T&>(root));
  if (w.failed()) return std::nullopt;
  return out;
}

/// Writes the leaves of partial checkpoint `cp` back into the live graph,
/// reading its records in walk order; with a pool the walk guard is the
/// pool's restore scratch.  Throws SnapshotError when the traversal does
/// not line up with the captured leaves — the signature of an unsound
/// write set.
template <class T>
void partial_restore(T& root, const ArenaSnapshot& cp,
                     const CheckpointPlan& plan, ArenaPool* pool = nullptr) {
  detail::ScratchLoan loan(pool);
  loan.s.seen.clear();
  detail::PartialWalker w(plan, loan.s.seen, cp.records());
  w.visit(root);
  w.finish();
}

}  // namespace fatomic::snapshot
