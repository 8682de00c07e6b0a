// Object-graph restore (the paper's replace, Listing 2 line 6): rolls a live
// object back to a checkpoint by replaying its record stream (arena.hpp)
// front to back, straight into the live object — no decoded node table.
//
// The restore proceeds in four phases:
//   0. collect — walk the *current* live graph and schedule every owned
//      raw-pointer pointee for deletion (cycle-safe, set-based; this is the
//      reclamation role the paper fills with reference counting + GC).
//   1. replay — read the records once, in capture order, and rebuild the
//      checkpointed graph in place: inline values are overwritten, owned
//      pointers (raw and smart) get freshly allocated pointees, and each
//      fresh pointee registers its address and is handed to its owner
//      before it is replayed, so back edges through shared_ptr cycles find
//      their holder.  A non-owned pointer's inline pointee record is skipped
//      and its resolution deferred; a back-reference in a value position
//      (tuple roots, an alias walked before its target) replays the
//      referenced record at this position.
//   2. fixups — non-owned (alias) pointers are resolved against the
//      registered addresses, preserving sharing; aliases to external
//      pointees (captured but owned outside the root) are restored in place
//      at their original address by replaying their skipped record.
//   3. reclaim — release what the replay replaced and delete the pointees
//      collected in phase 0.  Until then the replay parks the smart-pointer
//      pointees it would drop (an overwritten field, a cleared sequence's
//      elements, a reused map node's value) and the map and set nodes it
//      does not reuse, so a replay that throws frees nothing an alias of
//      the half-restored graph may still reach.
//
// Record ordinals are dense preorder NodeIds, so the per-ordinal state
// (address, record offset, shared holder) is one vector indexed by ordinal,
// and deferred steps are typed {fn, ptr, ordinal} records.  All of it is
// scratch lent by the runtime's ArenaPool, so a steady-state restore
// allocates only the graph's own objects.
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

#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <vector>

#include "fatomic/snapshot/arena.hpp"

namespace fatomic::snapshot {

namespace detail {

/// Writes primitive record `leaf` into the live value `dst`: the one leaf
/// writer, shared by the replayer and the partial restore (partial.hpp).
/// A leaf of another kind than `dst`'s throws.
template <class T>
void write_leaf(T& dst, const ArenaCursor::Leaf& leaf) {
  const auto expect = [&](bool same_kind) {
    if (!same_kind)
      throw SnapshotError("snapshot/type mismatch restoring primitive");
  };
  if constexpr (std::is_same_v<T, bool>) {
    expect(leaf.code == kPrimBool);
    dst = leaf.bits != 0;
  } else if constexpr (std::is_same_v<T, char>) {
    expect(leaf.code == kPrimChar);
    dst = static_cast<char>(leaf.bits);
  } else if constexpr (std::is_enum_v<T> ||
                       (std::is_integral_v<T> && std::is_signed_v<T>)) {
    expect(leaf.code == kPrimInt || leaf.code == kPrimEnum);
    dst = static_cast<T>(static_cast<std::int64_t>(leaf.bits));
  } else if constexpr (std::is_integral_v<T>) {
    expect(leaf.code == kPrimUint);
    dst = static_cast<T>(leaf.bits);
  } else if constexpr (std::is_same_v<T, float>) {
    expect(leaf.code == kPrimF32);
    dst = std::bit_cast<float>(static_cast<std::uint32_t>(leaf.bits));
  } else if constexpr (std::is_floating_point_v<T>) {
    expect(leaf.code == kPrimF64);
    dst = static_cast<T>(std::bit_cast<double>(leaf.bits));
  } else {
    // One copy, from the slab straight into the live string.
    expect(leaf.code == kPrimString);
    dst.assign(leaf.text.data(), leaf.text.size());
  }
}

/// Keeps what a failed restore parked in shared holders (replaced shared
/// pointees, map and set nodes it did not reuse) alive for the rest of the
/// process: an alias of the half-restored graph may still reach them, and
/// nothing tells when the last such alias dies.  The list stays reachable,
/// so LeakSanitizer does not count them as leaks.
inline void keep_for_life(std::vector<std::shared_ptr<void>>& replaced) {
  static std::mutex mu;
  static auto* const kept = new std::vector<std::shared_ptr<void>>();
  const std::lock_guard<std::mutex> lock(mu);
  for (std::shared_ptr<void>& p : replaced) kept->push_back(std::move(p));
  replaced.clear();
}

/// Restore scratch lent by `pool` for one restore (fresh without a pool) and
/// handed back with its capacity when the restore ends, thrown or not.
class ScratchLoan {
 public:
  explicit ScratchLoan(ArenaPool* pool) : pool_(pool) {
    if (pool_ != nullptr) s = pool_->take_restore_scratch();
  }
  ~ScratchLoan() {
    s.holders.clear();  // a restore keeps no shared pointee alive
    if (!s.replaced.empty()) keep_for_life(s.replaced);  // it threw
    if (pool_ != nullptr) pool_->give_back(std::move(s));
  }
  ScratchLoan(const ScratchLoan&) = delete;
  ScratchLoan& operator=(const ScratchLoan&) = delete;

  RestoreScratch s;

 private:
  ArenaPool* pool_;
};

}  // namespace detail

class Replayer {
 public:
  /// Rolls `root` back to checkpoint `cp` (the paper's replace()).
  ///
  /// Partial-restore exception safety: restore either completes or throws a
  /// RestoreError.  The replay overwrites the receiver in place, so a
  /// mid-replay exception (a throwing element constructor, a failed
  /// allocation, a record that does not fit the live type) leaves the graph
  /// half-restored — there is no way to roll the rollback back.  What we
  /// guarantee instead is a *distinct, loud* failure: the error is re-raised
  /// as RestoreError with a diagnostic, the wrappers count it
  /// (stats.restore_errors), and the scheduled deletions are skipped — the
  /// old pointees may still be referenced by the half-restored graph, so
  /// reclaiming them would turn a reported inconsistency into a
  /// use-after-free.  (Leaking them is the safe side; what the replay
  /// parked in shared holders goes to keep_for_life.)
  template <class T>
  static void apply(T& root, const ArenaSnapshot& cp, ArenaPool* pool) {
    if (cp.empty()) throw SnapshotError("restore from an empty snapshot");
    if (cp.byte_size() > std::numeric_limits<std::uint32_t>::max())
      throw SnapshotError("checkpoint too large to restore");
    detail::ScratchLoan loan(pool);
    Replayer r(cp, loan.s);
    r.collect_value(root, /*owned=*/false);
    try {
      r.replay(root);
      if (!r.in_.done())
        throw SnapshotError("corrupt arena snapshot: records after the root");
      // Fixups may enqueue further fixups (in-place restore of external
      // pointees can contain aliases of its own), so index, don't iterate.
      for (std::size_t i = 0; i < r.s_.fixups.size(); ++i) {
        const detail::ReplayStep f = r.s_.fixups[i];
        f.fn(r, f.ptr, f.ordinal);
      }
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
    r.s_.replaced.clear();
    for (const detail::ReplayStep& d : r.s_.deleters) d.fn(r, d.ptr, d.ordinal);
  }

  /// Replays the object record at the cursor into `dst`; public because
  /// polymorphic dispatch (PolyOps::restore) re-enters with the concrete
  /// type.
  template <reflect::Reflected T>
  void replay_object(T& dst) {
    replay_record(dst, /*owned=*/false);
  }

 private:
  /// Where a pointer record's pointee is: a back-reference to ordinal `t`,
  /// or a fresh record at the cursor that will take ordinal `t`.
  struct Pointee {
    NodeId t;
    bool ref;
  };
  /// A cursor position to come back to after replaying a referenced record.
  struct Mark {
    std::size_t offset;
    NodeId next;
  };

  Replayer(const ArenaSnapshot& cp, detail::RestoreScratch& s)
      : cp_(cp), in_(cp.records()), s_(s) {
    s_.entries.clear();
    s_.entries.reserve(cp.node_count());
    s_.fixups.clear();
    s_.deleters.clear();
    s_.holders.clear();
    s_.seen.clear();
  }

  /// Replays one value position: the record at the cursor, or the record a
  /// back-reference there names.
  template <class T>
  void replay(T& dst, bool owned = false) {
    if (in_.peek() != detail::kRecRef) return replay_record(dst, owned);
    in_.u8();
    const Mark back = jump(ref_target());
    replay_record(dst, owned);
    land(back);
  }

  template <class T>
  void replay_record(T& dst, bool owned) {
    namespace tr = traits;
    // Pointers and tuples are never alias targets: capture registers no
    // address for them.
    constexpr bool kPlaced = !std::is_pointer_v<T> &&
                             !tr::is_smart_ptr_v<T> && !tr::is_tuple_v<T>;
    const std::uint8_t tag = in_.u8();
    open(kPlaced ? &dst : nullptr);
    if constexpr (tr::is_primitive_v<T>) {
      expect(tag, detail::kRecPrim, "primitive");
      detail::write_leaf(dst, in_.prim());
    } else if constexpr (std::is_pointer_v<T>) {
      replay_raw_pointer(dst, tag, owned);
    } else if constexpr (tr::is_unique_ptr<T>::value) {
      replay_unique(dst, tag);
    } else if constexpr (tr::is_shared_ptr<T>::value) {
      replay_shared(dst, tag);
    } else if constexpr (tr::is_optional_v<T>) {
      const std::uint32_t n = composite(tag, detail::kRecSequence, "optional");
      if (n > 1) throw SnapshotError("snapshot/type mismatch restoring optional");
      if (n == 0) {
        dst.reset();
      } else {
        if (!dst.has_value()) dst.emplace();
        replay(*dst);
      }
    } else if constexpr (tr::is_tuple_v<T>) {
      if (composite(tag, detail::kRecObject, "tuple") != std::tuple_size_v<T>)
        throw SnapshotError("snapshot/type mismatch restoring tuple");
      std::apply([&](auto&... elems) { (replay(elems), ...); }, dst);
    } else if constexpr (tr::is_pair_v<T>) {
      if (composite(tag, detail::kRecObject, "pair") != 2)
        throw SnapshotError("snapshot/type mismatch restoring pair");
      replay(dst.first);
      replay(dst.second);
    } else if constexpr (tr::is_std_array_v<T>) {
      if (composite(tag, detail::kRecSequence, "array") != dst.size())
        throw SnapshotError("std::array size mismatch during restore");
      for (auto& e : dst) replay(e);
    } else if constexpr (std::is_same_v<T, std::vector<bool>>) {
      const std::uint32_t n =
          composite(tag, detail::kRecSequence, "vector<bool>");
      dst.assign(n, false);
      for (std::uint32_t i = 0; i < n; ++i) {
        expect(in_.u8(), detail::kRecPrim, "vector<bool>");
        open(nullptr);  // bits have no address
        bool bit = false;
        detail::write_leaf(bit, in_.prim());
        dst[i] = bit;
      }
    } else if constexpr (tr::is_sequence_v<T>) {
      const std::uint32_t n = composite(tag, detail::kRecSequence, "sequence");
      if constexpr (tr::is_smart_ptr_v<typename T::value_type>)
        for (auto& e : dst) park(e);
      dst.clear();
      dst.resize(n);
      for (auto& e : dst) replay(e);
    } else if constexpr (tr::is_map_v<T> || tr::is_set_v<T>) {
      replay_associative(dst, tag);
    } else if constexpr (reflect::is_reflected_v<T>) {
      const std::uint32_t n = composite(tag, detail::kRecObject, "object");
      if (n != reflect::field_count<T>())
        throw SnapshotError(std::string("field count mismatch restoring ") +
                            reflect::Reflect<std::remove_cv_t<T>>::name);
      reflect::for_each_field<T>(
          [&](const auto& f) { replay(dst.*(f.member), f.owned); });
    } else {
      static_assert(detail::dependent_false<T>,
                    "type is not restorable: register it with FAT_REFLECT or "
                    "use a supported container/pointer/primitive type");
    }
  }

  // ---- the cursor and the ordinal table ------------------------------------

  /// Gives the record whose tag was just read its ordinal and registers
  /// `addr`, the live value it is replayed into (before its children, so
  /// cycles resolve).  The table grows by one the first time the stream
  /// reaches an ordinal, from whichever cursor position gets there first.
  void open(const void* addr) {
    const NodeId id = next_++;
    if (id == s_.entries.size())
      s_.entries.push_back({const_cast<void*>(addr),
                            static_cast<std::uint32_t>(in_.offset() - 1),
                            detail::kNoHolder});
    else if (id < s_.entries.size())
      note(id, addr);
    else
      throw SnapshotError("corrupt arena snapshot: record ordinals out of "
                          "order");
  }

  /// The ordinal of a record at the cursor that open() has not seen yet
  /// registers here, before its tag is read.
  void enter_here(NodeId t, void* addr) {
    if (t == s_.entries.size())
      s_.entries.push_back({nullptr, static_cast<std::uint32_t>(in_.offset()),
                            detail::kNoHolder});
    note(t, addr);
  }

  /// Registers the live address of ordinal `id`; the first one stays.
  void note(NodeId id, const void* addr) {
    if (s_.entries[id].addr == nullptr)
      s_.entries[id].addr = const_cast<void*>(addr);
  }

  NodeId ref_target() {
    const NodeId t = in_.u32();
    if (t >= s_.entries.size())
      throw SnapshotError("corrupt arena snapshot: reference to an unknown "
                          "record");
    return t;
  }
  Mark jump(NodeId t) {
    const Mark back{in_.offset(), next_};
    in_.seek(s_.entries[t].offset);
    next_ = t;
    return back;
  }
  void land(Mark back) {
    in_.seek(back.offset);
    next_ = back.next;
  }

  void expect(std::uint8_t tag, std::uint8_t want, const char* what) const {
    if (tag != want)
      throw SnapshotError(std::string("snapshot/type mismatch restoring ") +
                          what);
  }
  std::uint32_t composite(std::uint8_t tag, std::uint8_t want,
                          const char* what) {
    expect(tag, want, what);
    return in_.composite().count;
  }

  /// Reads past one value without writing it, opening every ordinal in it.
  void skip() {
    const std::uint8_t tag = in_.u8();
    if (tag == detail::kRecRef) {
      ref_target();
      return;
    }
    open(nullptr);
    switch (tag) {
      case detail::kRecPrim:
        in_.prim();
        return;
      case detail::kRecObject:
      case detail::kRecSequence:
        for (std::uint32_t n = in_.composite().count; n > 0; --n) skip();
        return;
      case detail::kRecPointer:
        in_.u8();
        skip();
        return;
      case detail::kRecNull:
        return;
      default:
        throw SnapshotError("corrupt arena snapshot: unknown record tag");
    }
  }

  /// Reads a pointer record's tail: the owned flag (the field declaration
  /// decides ownership, as at capture) and where the pointee is.
  Pointee pointee() {
    in_.u8();
    if (in_.peek() != detail::kRecRef) return {next_, false};
    in_.u8();
    return {ref_target(), true};
  }

  /// Where pointee `p` already lives, when an earlier reading placed it: a
  /// back-reference, or a record a jump reads a second time (skipped here,
  /// so a placed pointee is shared, never built twice).
  void* placed(Pointee p) {
    void* at = p.t < s_.entries.size() ? s_.entries[p.t].addr : nullptr;
    if (at != nullptr && !p.ref) skip();
    return at;
  }

  // ---- pointers --------------------------------------------------------------

  template <class U>
  void replay_raw_pointer(U*& dst, std::uint8_t tag, bool owned) {
    if (tag == detail::kRecNull) {
      // The old pointee (if owned) was scheduled for deletion in phase 0.
      dst = nullptr;
      return;
    }
    expect(tag, detail::kRecPointer, "pointer");
    const Pointee p = pointee();
    if (!owned) {
      if (!p.ref) skip();
      s_.fixups.push_back({&resolve_fn<U>, static_cast<void*>(&dst), p.t});
      return;
    }
    if (void* at = placed(p)) {
      dst = static_cast<U*>(at);
      return;
    }
    // Owned before its replay: a replay that throws leaves the fresh pointee
    // reachable, for the next restore to reclaim.
    materialize<U>(p, [&](U* fresh) { dst = fresh; });
  }

  /// Parks the owned pointee `v` holds, when `v` is a smart pointer about to
  /// be overwritten or destroyed: a unique_ptr pointee is deleted in phase 3,
  /// as an owned raw pointee is, and a shared_ptr holder released there.
  template <class T>
  void park(T& v) {
    if constexpr (traits::is_unique_ptr<T>::value) {
      using U = typename T::element_type;
      static_assert(
          std::is_same_v<typename T::deleter_type, std::default_delete<U>>,
          "custom unique_ptr deleters are not supported");
      if (U* old = v.release())
        s_.deleters.push_back({&delete_fn<U>, static_cast<void*>(old), 0});
    } else if constexpr (traits::is_shared_ptr<T>::value) {
      if (v != nullptr) s_.replaced.push_back(std::move(v));
    }
  }

  template <class U, class D>
  void replay_unique(std::unique_ptr<U, D>& dst, std::uint8_t tag) {
    park(dst);
    if (tag == detail::kRecNull) return;
    expect(tag, detail::kRecPointer, "unique_ptr");
    // Owned before its replay: a replay that throws leaves the fresh pointee
    // reachable, for the next restore to reclaim.
    materialize<U>(pointee(), [&](U* fresh) { dst.reset(fresh); });
  }

  template <class U>
  void replay_shared(std::shared_ptr<U>& dst, std::uint8_t tag) {
    park(dst);
    if (tag == detail::kRecNull) return;
    expect(tag, detail::kRecPointer, "shared_ptr");
    const Pointee p = pointee();
    if (p.t < s_.entries.size()) {
      if (const std::uint32_t h = s_.entries[p.t].holder;
          h != detail::kNoHolder) {
        if (!p.ref) skip();
        // The aliasing constructor shares the first holder's control block,
        // whatever static type that holder had.
        dst = std::shared_ptr<U>(s_.holders[h],
                                 static_cast<U*>(s_.holders[h].get()));
        return;
      }
    }
    // The holder is entered before the pointee is replayed: a back edge
    // through a shared_ptr cycle shares it instead of recursing.
    materialize<U>(p, [&](U* fresh) {
      dst = std::shared_ptr<U>(fresh);
      s_.entries[p.t].holder = static_cast<std::uint32_t>(s_.holders.size());
      s_.holders.push_back(dst);
    });
  }

  /// Allocates a fresh pointee for record `p.t`, registers it, hands it to
  /// its owner through `adopt`, and only then replays the record into it.
  template <class U, class Adopt>
  U* materialize(Pointee p, Adopt&& adopt) {
    const Mark back = p.ref ? jump(p.t) : Mark{0, 0};
    U* fresh = nullptr;
    if constexpr (std::is_polymorphic_v<U>) {
      if (const PolyOps* ops = PolyRegistry::instance().find(
              typeid(U), std::string(object_name_here()))) {
        void* bp = ops->create();
        fresh = static_cast<U*>(bp);
        enter_here(p.t, bp);
        adopt(fresh);
        ops->restore(bp, *this);
      }
    }
    if (fresh == nullptr) {
      if constexpr (std::is_default_constructible_v<U> &&
                    !std::is_abstract_v<U> &&
                    (traits::is_walkable_v<U> || reflect::is_reflected_v<U>)) {
        fresh = new U();
        enter_here(p.t, fresh);
        adopt(fresh);
        replay_record(*fresh, /*owned=*/false);
      } else {
        throw SnapshotError(
            "cannot materialize pointee: type is abstract or not "
            "default-constructible and not in the polymorphic registry");
      }
    }
    if (p.ref) land(back);
    return fresh;
  }

  /// The class name of the object record at the cursor ("" for any other
  /// record); the cursor does not move.
  const char* object_name_here() {
    const std::size_t at = in_.offset();
    const char* name =
        in_.u8() == detail::kRecObject ? in_.composite().desc->name : "";
    in_.seek(at);
    return name;
  }

  /// Resolves a non-owned pointer against the placed records; falls back to
  /// restoring the external pointee in place at its captured address.
  template <class U>
  static void resolve_fn(Replayer& r, void* slot, NodeId t) {
    r.resolve(*static_cast<U**>(slot), t);
  }
  template <class U>
  void resolve(U*& dst, NodeId t) {
    if (void* at = s_.entries[t].addr) {
      dst = static_cast<U*>(at);
      return;
    }
    const void* src = cp_.src_addr(t);
    if (src == nullptr)
      throw SnapshotError("alias target was never materialized and has no "
                          "captured address");
    if constexpr (std::is_polymorphic_v<U>) {
      throw SnapshotError(
          "cannot restore an external polymorphic pointee in place");
    } else {
      auto* live = static_cast<std::remove_const_t<U>*>(const_cast<void*>(src));
      note(t, live);
      const Mark back = jump(t);
      replay_record(*live, /*owned=*/false);
      land(back);
      dst = live;
    }
  }

  // ---- maps and sets -----------------------------------------------------------

  /// Each entry is replayed into a node handle's key (and mapped value) and
  /// the node is then linked in: node addresses survive insert, so every
  /// record inside a key registers at its final in-container address.  The
  /// live container's nodes are reused while they last, each entry reset to
  /// value-initialized state first, as a fresh node would hold.
  template <class T>
  void replay_associative(T& dst, std::uint8_t tag) {
    constexpr bool kMap = traits::is_map_v<T>;
    const std::uint32_t n =
        composite(tag, detail::kRecSequence, kMap ? "map" : "set");
    T old = std::move(dst);
    dst.clear();
    // The nodes the loop leaves in `old` — entries the checkpoint no longer
    // holds, or, when a replay throws, those it did not reach — are parked
    // whole; their smart-pointer values are parked as a reused node's is.
    const auto park_rest = [&] {
      if (old.empty()) return;
      if constexpr (kMap)
        for (auto& entry : old) park(entry.second);
      s_.replaced.push_back(std::make_shared<T>(std::move(old)));
    };
    try {
      for (std::uint32_t i = 0; i < n; ++i) {
        if (old.empty()) old.emplace();
        auto node = old.extract(old.begin());
        if constexpr (kMap) {
          park(node.mapped());
          node.key() = typename T::key_type{};
          node.mapped() = typename T::mapped_type{};
          const std::uint8_t entry = in_.u8();
          open(nullptr);  // the entry pair: never an alias target
          if (entry != detail::kRecObject || in_.composite().count != 2)
            throw SnapshotError("snapshot/type mismatch restoring map entry");
          replay(node.key());
          replay(node.mapped());
        } else {
          node.value() = typename T::value_type{};
          replay(node.value());
        }
        dst.insert(dst.end(), std::move(node));
        if (!node.empty())
          throw SnapshotError(kMap ? "duplicate key restoring map"
                                   : "duplicate element restoring set");
      }
    } catch (...) {
      park_rest();
      throw;
    }
    park_rest();
  }

  // ---- phase 0: collect owned raw pointees of the current live graph ----

  template <class U>
  static void delete_fn(Replayer&, void* p, NodeId) {
    delete static_cast<U*>(p);
  }

  template <class T>
  void collect_value(const T& v, bool owned) {
    namespace tr = traits;
    if constexpr (tr::is_primitive_v<T>) {
      (void)v;
      (void)owned;
    } else if constexpr (std::is_pointer_v<T>) {
      if (v == nullptr || !owned) return;
      NodeId* seen = s_.seen.find_or_insert(v, "owned");
      if (*seen != kInvalidNode) return;
      *seen = 0;
      using U = std::remove_pointer_t<T>;
      s_.deleters.push_back(
          {&delete_fn<U>, const_cast<void*>(static_cast<const void*>(v)), 0});
      collect_value(*v, false);
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

  const ArenaSnapshot& cp_;
  ArenaCursor in_;
  detail::RestoreScratch& s_;
  NodeId next_ = 0;  ///< the ordinal of the next record the cursor opens
};

/// Rolls `root` back to checkpoint `cp`.  With a pool the restore reuses
/// its scratch; without one (tests, ad-hoc callers) it allocates its own.
template <class T>
void restore(T& root, const ArenaSnapshot& cp, ArenaPool* pool = nullptr) {
  Replayer::apply(root, cp, pool);
}

// ---- polymorphic registration ---------------------------------------------

namespace detail {

template <class Base, class Derived>
struct PolyOpsFor {
  static void encode_fn(const void* bp, ArenaEncoder& e) {
    const Base* base = static_cast<const Base*>(bp);
    e.encode_object(*static_cast<const Derived*>(base));
  }
  static void* create_fn() {
    return static_cast<void*>(static_cast<Base*>(new Derived()));
  }
  static void restore_fn(void* bp, Replayer& r) {
    Base* base = static_cast<Base*>(bp);
    r.replay_object(*static_cast<Derived*>(base));
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
