// Object-graph restore (the paper's replace, Listing 2 line 6): rolls a live
// object back to a previously captured checkpoint, read through its decoded
// view (node.hpp).
//
// The restore proceeds in four phases:
//   0. collect — walk the *current* live graph and schedule every owned
//      raw-pointer pointee for deletion (cycle-safe, set-based; this is the
//      reclamation role the paper fills with reference counting + GC).
//   1. restore — rebuild the checkpointed graph in place: inline values are
//      overwritten, owned pointers (raw and smart) get freshly allocated
//      pointees, and each materialized node registers its new address and
//      is handed to its owner before it is walked, so back edges through
//      shared_ptr cycles find their holder.
//   2. fixups — non-owned (alias) pointers are resolved against the
//      registered addresses, preserving sharing; aliases to external
//      pointees (captured but owned outside the root) are restored in place
//      at their original address.
//   3. reclaim — delete the pointees collected in phase 0.
//
// Conventions required of subject classes (documented in DESIGN.md):
//  - owned raw-pointer pointees are reclaimed individually, so their
//    destructors must not cascade to sibling nodes (containers free their
//    nodes iteratively, the standard idiom for cyclic/deep structures);
//  - classes held through smart pointers manage their own subtree;
//  - multiple inheritance through the polymorphic registry is unsupported.
//    Under single inheritance a registered base sits at its object's
//    address, so shared_ptr holders of one pointee may differ in static
//    type (shared_ptr<Base> and shared_ptr<Derived>) and share one
//    control block.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "fatomic/snapshot/capture.hpp"

namespace fatomic::snapshot {

namespace detail {

/// Writes decoded primitive node `n` into the live value `dst`: the one leaf
/// writer, shared by the Restorer and the partial restore (partial.hpp).
template <class T>
void write_primitive(T& dst, const Node& n) {
  if constexpr (std::is_same_v<T, bool>) {
    dst = std::get<bool>(n.value);
  } else if constexpr (std::is_same_v<T, char>) {
    dst = std::get<char>(n.value);
  } else if constexpr (std::is_enum_v<T>) {
    dst = static_cast<T>(std::get<std::int64_t>(n.value));
  } else if constexpr (std::is_integral_v<T> && std::is_signed_v<T>) {
    dst = static_cast<T>(std::get<std::int64_t>(n.value));
  } else if constexpr (std::is_integral_v<T>) {
    dst = static_cast<T>(std::get<std::uint64_t>(n.value));
  } else if constexpr (std::is_same_v<T, float>) {
    dst = std::get<F32Bits>(n.value).value();
  } else if constexpr (std::is_floating_point_v<T>) {
    dst = static_cast<T>(std::get<F64Bits>(n.value).value());
  } else {
    // One copy, from the slab straight into the live string.
    const std::string_view v = std::get<std::string_view>(n.value);
    dst.assign(v.data(), v.size());
  }
}

}  // namespace detail

class Restorer {
 public:
  /// Rolls `root` back to the state recorded in `s` (the paper's replace()).
  ///
  /// Partial-restore exception safety: restore either completes or throws a
  /// RestoreError.  The rebuild phases overwrite the receiver in place, so a
  /// mid-replay exception (a throwing element constructor, a failed
  /// allocation) leaves the graph half-restored — there is no way to roll
  /// the rollback back.  What we guarantee instead is a *distinct, loud*
  /// failure: the error is re-raised as RestoreError with a diagnostic, the
  /// wrappers count it (stats.restore_errors), and the scheduled deletions
  /// are skipped — the old pointees may still be referenced by the
  /// half-restored graph, so reclaiming them would turn a reported
  /// inconsistency into a use-after-free.  (Leaking them is the safe side.)
  template <class T>
  static void apply(T& root, const Snapshot& s) {
    if (s.empty()) throw SnapshotError("restore from an empty snapshot");
    Restorer r;
    r.snap_ = &s;
    r.collect_value(root, /*owned=*/false);
    try {
      r.restore_value(root, s.root(), /*owned=*/false);
      // Fixups may enqueue further fixups (in-place restore of external
      // pointees can contain aliases of its own), so index, don't iterate.
      for (std::size_t i = 0; i < r.fixups_.size(); ++i) r.fixups_[i]();
    } catch (const RestoreError&) {
      throw;
    } catch (const std::exception& e) {
      throw RestoreError(
          std::string("restore failed mid-replay, receiver may be partially "
                      "restored: ") +
          e.what());
    } catch (...) {
      throw RestoreError(
          "restore failed mid-replay, receiver may be partially restored");
    }
    for (auto& del : r.deleters_) del();
  }

  /// Restores one value from node `id`.  `owned` applies to raw pointers.
  template <class T>
  void restore_value(T& dst, NodeId id, bool owned = false) {
    namespace tr = traits;
    const Node& n = snap_->node(id);
    if constexpr (tr::is_primitive_v<T>) {
      expect(n, NodeKind::Primitive, "primitive");
      made_.emplace(id, static_cast<void*>(&dst));
      detail::write_primitive(dst, n);
    } else if constexpr (std::is_pointer_v<T>) {
      restore_raw_pointer(dst, id, owned);
    } else if constexpr (tr::is_unique_ptr<T>::value) {
      restore_unique(dst, id);
    } else if constexpr (tr::is_shared_ptr<T>::value) {
      restore_shared(dst, id);
    } else if constexpr (tr::is_optional_v<T>) {
      expect(n, NodeKind::Sequence, "optional");
      made_.emplace(id, static_cast<void*>(&dst));
      if (n.children.empty()) {
        dst.reset();
      } else {
        if (!dst.has_value()) dst.emplace();
        restore_value(*dst, n.children[0]);
      }
    } else if constexpr (tr::is_tuple_v<T>) {
      expect(n, NodeKind::Object, "tuple");
      if (n.children.size() != std::tuple_size_v<T>)
        throw SnapshotError("snapshot/type mismatch restoring tuple");
      std::size_t i = 0;
      std::apply([&](auto&... elems) { (restore_value(elems, n.children[i++]), ...); },
                 dst);
    } else if constexpr (tr::is_pair_v<T>) {
      expect(n, NodeKind::Object, "pair");
      if (n.children.size() != 2)
        throw SnapshotError("snapshot/type mismatch restoring pair");
      made_.emplace(id, static_cast<void*>(&dst));
      restore_value(dst.first, n.children[0]);
      restore_value(dst.second, n.children[1]);
    } else if constexpr (tr::is_std_array_v<T>) {
      expect(n, NodeKind::Sequence, "array");
      if (n.children.size() != dst.size())
        throw SnapshotError("std::array size mismatch during restore");
      made_.emplace(id, static_cast<void*>(&dst));
      for (std::size_t i = 0; i < dst.size(); ++i)
        restore_value(dst[i], n.children[i]);
    } else if constexpr (std::is_same_v<T, std::vector<bool>>) {
      expect(n, NodeKind::Sequence, "vector<bool>");
      made_.emplace(id, static_cast<void*>(&dst));
      dst.assign(n.children.size(), false);
      for (std::size_t i = 0; i < n.children.size(); ++i)
        dst[i] = std::get<bool>(snap_->node(n.children[i]).value);
    } else if constexpr (tr::is_sequence_v<T>) {
      expect(n, NodeKind::Sequence, "sequence");
      made_.emplace(id, static_cast<void*>(&dst));
      dst.clear();
      dst.resize(n.children.size());
      std::size_t i = 0;
      for (auto& e : dst) restore_value(e, n.children[i++]);
    } else if constexpr (tr::is_map_v<T>) {
      restore_map(dst, n);
    } else if constexpr (tr::is_set_v<T>) {
      restore_set(dst, n);
    } else if constexpr (reflect::is_reflected_v<T>) {
      restore_object(dst, id);
    } else {
      static_assert(detail::dependent_false<T>,
                    "type is not restorable: register it with FAT_REFLECT or "
                    "use a supported container/pointer/primitive type");
    }
  }

  /// Restores a reflected object in place; public because polymorphic
  /// dispatch (PolyOps) re-enters the restorer with the concrete type.
  template <reflect::Reflected T>
  void restore_object(T& dst, NodeId id) {
    const Node& n = snap_->node(id);
    expect(n, NodeKind::Object, "object");
    made_.emplace(id, static_cast<void*>(&dst));  // before fields: cycles
    if (n.children.size() != reflect::field_count<T>())
      throw SnapshotError(std::string("field count mismatch restoring ") +
                          reflect::Reflect<std::remove_cv_t<T>>::name);
    std::size_t i = 0;
    reflect::for_each_field<T>([&](const auto& f) {
      restore_value(dst.*(f.member), n.children[i++], f.owned);
    });
  }

 private:
  void expect(const Node& n, NodeKind k, const char* what) const {
    if (n.kind != k)
      throw SnapshotError(std::string("snapshot/type mismatch restoring ") +
                          what);
  }

  template <class U>
  void restore_raw_pointer(U*& dst, NodeId id, bool owned) {
    const Node& n = snap_->node(id);
    if (n.kind == NodeKind::NullPointer) {
      // The old pointee (if owned) was scheduled for deletion in phase 0.
      dst = nullptr;
      return;
    }
    expect(n, NodeKind::Pointer, "pointer");
    if (!owned) {
      fixups_.push_back([this, &dst, id] { resolve_alias(dst, id); });
      return;
    }
    NodeId t = n.pointee;
    if (auto it = made_.find(t); it != made_.end()) {
      dst = static_cast<U*>(it->second);
      return;
    }
    dst = materialize<U>(t, [](U*) {});
  }

  /// Allocates a fresh pointee for node `t` and registers it, hands it to
  /// its owner through `adopt`, and only then restores it.
  template <class U, class Adopt>
  U* materialize(NodeId t, Adopt&& adopt) {
    if constexpr (std::is_polymorphic_v<U>) {
      const Node& tn = snap_->node(t);
      const PolyOps* ops = PolyRegistry::instance().find(
          typeid(U), std::string(tn.type_name));
      if (ops != nullptr) {
        void* bp = ops->create();
        U* fresh = static_cast<U*>(bp);
        made_.emplace(t, static_cast<void*>(fresh));
        adopt(fresh);
        ops->restore(bp, *this, t);
        return fresh;
      }
    }
    if constexpr (std::is_default_constructible_v<U> &&
                  !std::is_abstract_v<U> &&
                  (traits::is_walkable_v<U> || reflect::is_reflected_v<U>)) {
      U* fresh = new U();
      made_.emplace(t, static_cast<void*>(fresh));
      adopt(fresh);
      restore_value(*fresh, t);
      return fresh;
    } else {
      throw SnapshotError(
          "cannot materialize pointee: type is abstract or not "
          "default-constructible and not in the polymorphic registry");
    }
  }

  template <class U, class D>
  void restore_unique(std::unique_ptr<U, D>& dst, NodeId id) {
    static_assert(std::is_same_v<D, std::default_delete<U>>,
                  "custom unique_ptr deleters are not supported");
    const Node& n = snap_->node(id);
    if (n.kind == NodeKind::NullPointer) {
      dst.reset();
      return;
    }
    expect(n, NodeKind::Pointer, "unique_ptr");
    dst.reset(materialize<U>(n.pointee, [](U*) {}));
  }

  template <class U>
  void restore_shared(std::shared_ptr<U>& dst, NodeId id) {
    const Node& n = snap_->node(id);
    if (n.kind == NodeKind::NullPointer) {
      dst.reset();
      return;
    }
    expect(n, NodeKind::Pointer, "shared_ptr");
    NodeId t = n.pointee;
    if (auto it = holders_.find(t); it != holders_.end()) {
      // The aliasing constructor shares the first holder's control block,
      // whatever static type that holder had.
      dst = std::shared_ptr<U>(it->second, static_cast<U*>(it->second.get()));
      return;
    }
    // The holder is entered before the pointee is walked: a back edge
    // through a shared_ptr cycle shares it instead of recursing.
    materialize<U>(t, [&](U* fresh) {
      dst = std::shared_ptr<U>(fresh);
      holders_.emplace(t, dst);
    });
  }

  template <class T>
  void restore_map(T& dst, const Node& n) {
    expect(n, NodeKind::Sequence, "map");
    dst.clear();
    for (NodeId pid : n.children) {
      const Node& pn = snap_->node(pid);
      if (pn.kind != NodeKind::Object || pn.children.size() != 2)
        throw SnapshotError("snapshot/type mismatch restoring map entry");
      typename T::key_type key{};
      restore_value(key, pn.children[0]);
      auto res = dst.emplace(std::move(key), typename T::mapped_type{});
      auto& slot = [&]() -> typename T::mapped_type& {
        if constexpr (requires { res.first->second; })
          return res.first->second;  // map / unique keys
        else
          return res->second;  // multimap
      }();
      // Re-register the key node at its final (in-map) address.
      auto key_addr = [&]() -> const void* {
        if constexpr (requires { res.first->first; })
          return &res.first->first;
        else
          return &res->first;
      }();
      made_.insert_or_assign(pn.children[0],
                             const_cast<void*>(key_addr));
      restore_value(slot, pn.children[1]);
    }
  }

  template <class T>
  void restore_set(T& dst, const Node& n) {
    expect(n, NodeKind::Sequence, "set");
    dst.clear();
    for (NodeId eid : n.children) {
      typename T::key_type key{};
      restore_value(key, eid);
      auto it = dst.insert(std::move(key));
      auto addr = [&]() -> const void* {
        if constexpr (requires { *it.first; })
          return &*it.first;  // set: pair<iterator,bool>
        else
          return &*it;  // multiset: iterator
      }();
      made_.insert_or_assign(eid, const_cast<void*>(addr));
    }
  }

  /// Resolves a non-owned pointer against materialized nodes; falls back to
  /// restoring the external pointee in place at its captured address.
  template <class U>
  void resolve_alias(U*& dst, NodeId pointer_node) {
    NodeId target = snap_->node(pointer_node).pointee;
    if (auto it = made_.find(target); it != made_.end()) {
      dst = static_cast<U*>(it->second);
      return;
    }
    const Node& tn = snap_->node(target);
    if (tn.src_addr == nullptr)
      throw SnapshotError("alias target was never materialized and has no "
                          "captured address");
    if constexpr (std::is_polymorphic_v<U>) {
      throw SnapshotError(
          "cannot restore an external polymorphic pointee in place");
    } else {
      U* live = static_cast<U*>(const_cast<void*>(tn.src_addr));
      made_.emplace(target, static_cast<void*>(live));
      restore_value(*live, target);
      dst = live;
    }
  }

  // ---- phase 0: collect owned raw pointees of the current live graph ----

  template <class T>
  void collect_value(const T& v, bool owned) {
    namespace tr = traits;
    if constexpr (tr::is_primitive_v<T>) {
      (void)v;
      (void)owned;
    } else if constexpr (std::is_pointer_v<T>) {
      if (v != nullptr && owned && visited_.insert(v).second) {
        deleters_.push_back([p = v] { delete p; });
        collect_value(*v, false);
      }
    } else if constexpr (tr::is_smart_ptr_v<T>) {
      // Smart-pointer chains reclaim themselves when overwritten.
    } else if constexpr (tr::is_optional_v<T>) {
      if (v.has_value()) collect_value(*v, false);
    } else if constexpr (tr::is_tuple_v<T>) {
      std::apply([&](const auto&... elems) { (collect_value(elems, false), ...); }, v);
    } else if constexpr (tr::is_pair_v<T>) {
      collect_value(v.first, false);
      collect_value(v.second, false);
    } else if constexpr (tr::is_sequence_v<T> || tr::is_std_array_v<T> ||
                         tr::is_set_v<T>) {
      for (const auto& e : v) collect_value(e, false);
    } else if constexpr (tr::is_map_v<T>) {
      for (const auto& kv : v) {
        collect_value(kv.first, false);
        collect_value(kv.second, false);
      }
    } else if constexpr (reflect::is_reflected_v<T>) {
      reflect::for_each_field<T>(
          [&](const auto& f) { collect_value(v.*(f.member), f.owned); });
    }
  }

  const Snapshot* snap_ = nullptr;
  std::unordered_map<NodeId, void*> made_;
  std::unordered_map<NodeId, std::shared_ptr<void>> holders_;
  std::vector<std::function<void()>> fixups_;
  std::vector<std::function<void()>> deleters_;
  std::unordered_set<const void*> visited_;
};

/// Rolls `root` back to the decoded view `s`.
template <class T>
void restore(T& root, const Snapshot& s) {
  Restorer::apply(root, s);
}

/// Rolls `root` back to checkpoint `cp`: decode + Restorer.
template <class T>
void restore(T& root, const ArenaSnapshot& cp) {
  Restorer::apply(root, cp.decode());
}

// ---- polymorphic registration ---------------------------------------------

namespace detail {

template <class Base, class Derived>
struct PolyOpsFor {
  static NodeId encode_fn(const void* bp, ArenaEncoder& e) {
    const Base* base = static_cast<const Base*>(bp);
    return e.encode_object(*static_cast<const Derived*>(base));
  }
  static void* create_fn() {
    return static_cast<void*>(static_cast<Base*>(new Derived()));
  }
  static void restore_fn(void* bp, Restorer& r, NodeId id) {
    Base* base = static_cast<Base*>(bp);
    r.restore_object(*static_cast<Derived*>(base), id);
  }
};

}  // namespace detail

/// Registers Derived as a concrete class reachable through Base pointers.
/// Usually invoked via the FAT_POLY macro.
template <class Base, class Derived>
int register_poly() {
  static_assert(std::is_base_of_v<Base, Derived>);
  static_assert(reflect::is_reflected_v<Derived>,
                "register the derived class with FAT_REFLECT first");
  static const PolyOps ops{
      reflect::Reflect<Derived>::name,
      &detail::PolyOpsFor<Base, Derived>::encode_fn,
      &detail::PolyOpsFor<Base, Derived>::create_fn,
      &detail::PolyOpsFor<Base, Derived>::restore_fn,
  };
  PolyRegistry::instance().add(typeid(Base), typeid(Derived), &ops);
  return 0;
}

}  // namespace fatomic::snapshot

/// Registers the (Base, Derived) pair with the polymorphic snapshot registry
/// at static-initialization time.  Place at namespace scope in a .cpp file.
#define FAT_POLY(Base, Derived)                      \
  static const int fat_poly_##Derived##_reg =        \
      ::fatomic::snapshot::register_poly<Base, Derived>()
