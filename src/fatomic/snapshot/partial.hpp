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
// positional overwrite.  Every assumption is still checked at runtime:
//
//  - a capture-named field that is not primitive at runtime, a polymorphic
//    pointee, or a leaf reachable only through const (set-key) storage makes
//    the *capture* fail (`PartialSnapshot::ok == false`), and the caller
//    falls back to a full snapshot;
//  - a leaf-count mismatch during *restore* — possible only if the write set
//    was unsound — throws SnapshotError instead of silently corrupting.
//
// `prune` lists member names whose subtrees provably cannot contain any
// capture name; the walk skips them entirely, which is where the checkpoint
// cost reduction comes from on deep structures.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <set>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "fatomic/common/error.hpp"
#include "fatomic/snapshot/arena.hpp"

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

/// One recorded leaf.  Same canonical forms as the decoded view's Prim
/// (node.hpp), but strings are owned: the live field keeps changing after
/// the capture.
using Leaf = std::variant<bool, char, std::int64_t, std::uint64_t, F32Bits,
                          F64Bits, std::string>;

/// The recorded leaves of one partial capture, in deterministic walk order.
struct PartialSnapshot {
  bool ok = false;  ///< capture completed; false → use a full snapshot
  std::vector<Leaf> values;
};

namespace detail {

template <class T>
Leaf to_leaf(const T& v) {
  if constexpr (std::is_same_v<T, bool> || std::is_same_v<T, char>) {
    return v;
  } else if constexpr (std::is_enum_v<T>) {
    return static_cast<std::int64_t>(
        static_cast<std::underlying_type_t<T>>(v));
  } else if constexpr (std::is_integral_v<T> && std::is_signed_v<T>) {
    return static_cast<std::int64_t>(v);
  } else if constexpr (std::is_integral_v<T>) {
    return static_cast<std::uint64_t>(v);
  } else if constexpr (std::is_same_v<T, float>) {
    // Bitwise, not widened: float->double conversion canonicalizes NaN
    // payloads and loses denormal identity (state identity, node.hpp).
    return F32Bits{std::bit_cast<std::uint32_t>(v)};
  } else if constexpr (std::is_floating_point_v<T>) {
    return F64Bits{std::bit_cast<std::uint64_t>(static_cast<double>(v))};
  } else {
    static_assert(std::is_same_v<T, std::string>);
    return v;
  }
}

/// Inverse of to_leaf.
template <class T>
void from_leaf(T& dst, const Leaf& v) {
  if constexpr (std::is_same_v<T, bool>) {
    dst = std::get<bool>(v);
  } else if constexpr (std::is_same_v<T, char>) {
    dst = std::get<char>(v);
  } else if constexpr (std::is_enum_v<T>) {
    dst = static_cast<T>(std::get<std::int64_t>(v));
  } else if constexpr (std::is_integral_v<T> && std::is_signed_v<T>) {
    dst = static_cast<T>(std::get<std::int64_t>(v));
  } else if constexpr (std::is_integral_v<T>) {
    dst = static_cast<T>(std::get<std::uint64_t>(v));
  } else if constexpr (std::is_same_v<T, float>) {
    dst = std::get<F32Bits>(v).value();
  } else if constexpr (std::is_floating_point_v<T>) {
    dst = static_cast<T>(std::get<F64Bits>(v).value());
  } else {
    static_assert(std::is_same_v<T, std::string>);
    dst = std::get<std::string>(v);
  }
}

/// One walker for both directions; Restore replays the identical traversal
/// and overwrites leaves positionally.
class PartialWalker {
 public:
  enum class Mode { Capture, Restore };

  PartialWalker(const CheckpointPlan& plan, Mode mode,
                std::vector<Leaf>& values)
      : plan_(plan), mode_(mode), values_(values) {}

  bool failed() const { return failed_; }

  void finish() {
    if (mode_ == Mode::Restore && cursor_ != values_.size())
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
    } else if constexpr (tr::is_unique_ptr<U>::value ||
                         tr::is_shared_ptr<U>::value || tr::is_rc_ptr<U>::value) {
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

  /// Records (Capture) or overwrites (Restore) one named leaf.
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
    } else {
      if (mode_ == Mode::Capture) {
        values_.push_back(to_leaf(v));
      } else {
        if (cursor_ >= values_.size())
          throw SnapshotError("partial restore: more leaves than captured");
        from_leaf(v, values_[cursor_++]);
      }
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
    if (mode_ == Mode::Restore)
      throw SnapshotError(std::string("partial restore: ") + why);
    failed_ = true;
  }

  const CheckpointPlan& plan_;
  Mode mode_;
  std::vector<Leaf>& values_;
  std::size_t cursor_ = 0;
  bool failed_ = false;
  ArenaSeenMap seen_;
};

}  // namespace detail

/// Captures the leaves `plan` names from the graph rooted at `root`.  A
/// non-partial plan or any walk-time surprise yields `ok == false` — the
/// caller must fall back to a full arena_capture.
template <class T>
PartialSnapshot partial_capture(const T& root, const CheckpointPlan& plan) {
  PartialSnapshot out;
  if (!plan.partial) return out;
  detail::PartialWalker w(plan, detail::PartialWalker::Mode::Capture,
                          out.values);
  // Shed the root's top-level constness so both directions instantiate the
  // same walk; genuinely-const interior storage (set keys) still fails.
  w.visit(const_cast<T&>(root));
  out.ok = !w.failed();
  if (!out.ok) out.values.clear();
  return out;
}

/// Writes a previously captured PartialSnapshot back into the live graph.
/// Throws SnapshotError when the traversal does not line up with the
/// captured leaves — the signature of an unsound write set.
template <class T>
void partial_restore(T& root, const PartialSnapshot& snap,
                     const CheckpointPlan& plan) {
  if (!snap.ok) throw SnapshotError("partial restore of a failed capture");
  auto& values = const_cast<std::vector<Leaf>&>(snap.values);
  detail::PartialWalker w(plan, detail::PartialWalker::Mode::Restore, values);
  w.visit(root);
  w.finish();
}

}  // namespace fatomic::snapshot
