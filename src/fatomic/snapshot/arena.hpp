// Arena checkpoints: the one representation of a captured object graph
// (the paper's deep_copy, Listing 1 line 6).
//
// One deterministic preorder walk — field declaration order, container
// iteration order — serializes the object graph into a contiguous byte
// slab, one tagged record per node.  The walk is alias-aware: every captured
// value registers its address, and a value whose address (and type tag) was
// already captured becomes a back-reference, so shared pointees stay shared
// exactly as Definition 1 requires; cycles resolve because a node registers
// before its children are walked.  Every record but a back-reference is a
// node, numbered by its ordinal (NodeId) in stream order.  Captures of
// structurally equal graphs produce byte-identical slabs and unequal graphs
// differing ones, so graph equality is a single memcmp
// (ArenaSnapshot::equals).
//
// Record stream grammar (little-endian, in-process only — never persisted):
//   capture := value                        (arena_capture: one tree)
//            | prim*                        (partial_capture: one per leaf)
//   value   := prim | object | sequence | pointer | null | ref
//   prim    := 0x00 code payload            (code selects tag + payload size)
//   object  := 0x01 type:u64 count:u32 value*count
//   sequence:= 0x02 type:u64 count:u32 value*count
//   pointer := 0x03 owned:u8 value          (the pointee, possibly a ref)
//   null    := 0x04
//   ref     := 0x05 ordinal:u32             (back-reference; creates no node)
// The type word of a composite record is the address of the type's static
// descriptor (detail::TypeDesc): its name and, for reflected classes, its
// field names.  The diff names fields from it — no registry, no slab bytes.
// Source addresses (ArenaSnapshot::src_addr, needed by the restorer's
// external-alias fixups) live in a side vector parallel to record ordinals —
// deliberately *outside* the slab, so address churn between runs never
// breaks memcmp.
// ArenaCursor is the one reader of this grammar: the restore replayer
// (restore.hpp), the partial restore (partial.hpp) and the diff (diff.hpp)
// all read records through it, with no decoded node table.
//
// Slabs and address vectors are recycled through a per-weave::Runtime
// ArenaPool: steady-state captures, full and partial, perform no allocation
// beyond amortized vector growth, and restores reuse the pool's restore
// scratch the same way.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <typeinfo>
#include <utility>
#include <vector>

#include "fatomic/common/error.hpp"
#include "fatomic/reflect/reflect.hpp"
#include "fatomic/snapshot/poly.hpp"
#include "fatomic/snapshot/traits.hpp"

namespace fatomic::snapshot {

/// A record's ordinal: its position among the stream's node records.
using NodeId = std::uint32_t;
inline constexpr NodeId kInvalidNode = 0xFFFFFFFFu;

class ArenaEncoder;
class ArenaPool;
class Replayer;

namespace detail {

template <class>
inline constexpr bool dependent_false = false;

/// Type tag of a primitive leaf: part of its alias key.
template <class T>
constexpr const char* prim_tag() {
  if constexpr (std::is_same_v<T, bool>) return "bool";
  else if constexpr (std::is_same_v<T, char>) return "char";
  else if constexpr (std::is_enum_v<T>) return "enum";
  else if constexpr (std::is_integral_v<T> && std::is_signed_v<T>) return "int";
  else if constexpr (std::is_integral_v<T>) return "uint";
  else if constexpr (std::is_floating_point_v<T>) return "float";
  else return "string";
}

/// What a composite record's type word points at: the type's name and, for
/// reflected classes, its field names in declaration order (null for
/// containers, pairs, tuples and optionals).
struct TypeDesc {
  const char* name;
  const char* const* field_names;
};

/// The descriptor of reflected class T, built at compile time from
/// Reflect<T>::fields.  An inline static member, so it has one address per
/// program.
template <class T>
struct ReflectedDesc {
  static constexpr auto field_names = std::apply(
      [](const auto&... f) {
        return std::array<const char*, sizeof...(f)>{f.name...};
      },
      reflect::Reflect<T>::fields);
  static constexpr TypeDesc desc{reflect::Reflect<T>::name,
                                 field_names.data()};
};

inline constexpr TypeDesc kSeqDesc{"seq", nullptr};
inline constexpr TypeDesc kMapDesc{"map", nullptr};
inline constexpr TypeDesc kOptionalDesc{"std::optional", nullptr};
inline constexpr TypeDesc kPairDesc{"std::pair", nullptr};
inline constexpr TypeDesc kTupleDesc{"std::tuple", nullptr};

/// The alias map of every walk over a live graph (capture and the partial
/// walker): keyed by address + type tag, names compared by value — an
/// object and its first member share an address and differ only by tag.
/// The alias map is the hot loop of any capture: the hash covers the
/// address alone (same-address different-tag entries just share a probe
/// chain; equality disambiguates), and find + insert collapse into one
/// open-addressing probe returning a slot the caller fills in.
class ArenaSeenMap {
 public:
  ArenaSeenMap() = default;

  /// Probes for (addr, name), claiming a slot on a miss.  The returned id
  /// is kInvalidNode for a newly claimed slot — the caller registers by
  /// writing the node id through the pointer *before* the next map call
  /// (growth invalidates slot pointers).
  NodeId* find_or_insert(const void* addr, const char* name) {
    if ((size_ + 1) * 4 >= slots_.size() * 3) grow();
    std::size_t i = index_of(addr);
    while (true) {
      Slot& s = slots_[i];
      if (s.gen != gen_) {
        s.addr = addr;
        s.name = name;
        s.id = kInvalidNode;
        s.gen = gen_;
        ++size_;
        return &s.id;
      }
      if (s.addr == addr &&
          (s.name == name || std::strcmp(s.name, name) == 0))
        return &s.id;
      i = (i + 1) & (slots_.size() - 1);
    }
  }

  /// O(1): bumping the generation invalidates every live slot.  A campaign
  /// reuses one map for thousands of captures whose sizes vary wildly; a
  /// memset-style clear would charge every small capture for the largest
  /// capture's capacity.
  void clear() {
    size_ = 0;
    if (++gen_ == 0) {  // wrapped: stamps from 2^32 captures ago are live again
      for (Slot& s : slots_) s.gen = 0;
      gen_ = 1;
    }
  }

  std::size_t size() const { return size_; }

 private:
  struct Slot {
    const void* addr = nullptr;
    const char* name = nullptr;
    NodeId id = kInvalidNode;
    std::uint32_t gen = 0;  ///< slot is live iff gen == map generation
  };

  std::size_t index_of(const void* addr) const {
    auto h = static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(addr));
    h ^= h >> 33;
    h *= 0x9E3779B97F4A7C15ull;  // golden-ratio mix
    h ^= h >> 29;
    return static_cast<std::size_t>(h) & (slots_.size() - 1);
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.empty() ? 64 : old.size() * 2, Slot{});
    for (const Slot& s : old) {
      if (s.gen != gen_) continue;
      std::size_t i = index_of(s.addr);
      while (slots_[i].gen == gen_) i = (i + 1) & (slots_.size() - 1);
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;  ///< power-of-two capacity, linear probing
  std::size_t size_ = 0;
  std::uint32_t gen_ = 1;  ///< 0 is reserved for never-used slots
};

enum ArenaRecord : std::uint8_t {
  kRecPrim = 0,
  kRecObject = 1,
  kRecSequence = 2,
  kRecPointer = 3,
  kRecNull = 4,
  kRecRef = 5,
};

enum ArenaPrimCode : std::uint8_t {
  kPrimBool = 0,
  kPrimChar = 1,
  kPrimEnum = 2,
  kPrimInt = 3,
  kPrimUint = 4,
  kPrimF32 = 5,
  kPrimF64 = 6,
  kPrimString = 7,
};

inline constexpr std::uint32_t kNoHolder = 0xFFFFFFFFu;

/// Per-ordinal state of one restore (restore.hpp): where the record's value
/// lives now (null until placed), the record's byte offset in the slab, and
/// for a shared pointee the index of its first holder.
struct ReplayEntry {
  void* addr = nullptr;
  std::uint32_t offset = 0;
  std::uint32_t holder = kNoHolder;
};

/// A deferred restore step: a non-owned pointer to resolve after the walk,
/// or a replaced owned pointee to delete after a successful replay.
struct ReplayStep {
  void (*fn)(Replayer& r, void* ptr, NodeId ordinal);
  void* ptr;
  NodeId ordinal;
};

/// What a restore reuses between calls: the ordinal table, the deferred
/// steps, the shared holders, what the replay replaced and releases in
/// phase 3 (shared holders, map and set nodes), and one alias map (phase
/// 0's visited set, the partial restore's walk guard).
struct RestoreScratch {
  std::vector<ReplayEntry> entries;
  std::vector<ReplayStep> fixups;
  std::vector<ReplayStep> deleters;
  std::vector<std::shared_ptr<void>> holders;
  std::vector<std::shared_ptr<void>> replaced;
  ArenaSeenMap seen;
};

}  // namespace detail

/// The one reader of the record stream grammar above.  Reads are
/// bounds-checked: a truncated stream, an unknown primitive code or a
/// composite count the remaining bytes cannot hold throws SnapshotError.
/// Record ordinals are the caller's to count.
class ArenaCursor {
 public:
  struct Composite {
    const detail::TypeDesc* desc;
    std::uint32_t count;
  };
  /// A primitive record's payload: `bits` holds a bool, char, integer or
  /// float image, `text` a string leaf's bytes (a view into the slab).
  struct Leaf {
    std::uint8_t code;
    std::uint64_t bits;
    std::string_view text;
  };

  ArenaCursor() = default;
  ArenaCursor(const std::byte* begin, const std::byte* end)
      : begin_(begin), p_(begin), end_(end) {}

  bool done() const { return p_ == end_; }
  std::size_t offset() const { return static_cast<std::size_t>(p_ - begin_); }
  /// Moves to a record boundary this stream was read at before.
  void seek(std::size_t offset) { p_ = begin_ + offset; }

  std::uint8_t peek() const {
    need(1);
    return static_cast<std::uint8_t>(*p_);
  }
  std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(*p_++);
  }
  std::uint32_t u32() { return word<std::uint32_t>(); }
  std::uint64_t u64() { return word<std::uint64_t>(); }

  /// A composite record's type word and count (its tag already read).
  Composite composite() {
    const auto* desc = reinterpret_cast<const detail::TypeDesc*>(
        static_cast<std::uintptr_t>(u64()));
    const std::uint32_t count = u32();
    need(count);  // every value record takes at least one byte
    return {desc, count};
  }

  /// A primitive record's code and payload (its tag already read).
  Leaf prim() {
    Leaf leaf{u8(), 0, {}};
    switch (leaf.code) {
      case detail::kPrimBool:
      case detail::kPrimChar:
        leaf.bits = u8();
        break;
      case detail::kPrimF32:
        leaf.bits = u32();
        break;
      case detail::kPrimEnum:
      case detail::kPrimInt:
      case detail::kPrimUint:
      case detail::kPrimF64:
        leaf.bits = u64();
        break;
      case detail::kPrimString: {
        const std::uint32_t len = u32();
        need(len);
        leaf.text = std::string_view(reinterpret_cast<const char*>(p_), len);
        p_ += len;
        break;
      }
      default:
        throw SnapshotError("corrupt arena snapshot: unknown primitive code");
    }
    return leaf;
  }

 private:
  template <class W>
  W word() {
    need(sizeof(W));
    W v;
    std::memcpy(&v, p_, sizeof v);
    p_ += sizeof v;
    return v;
  }
  void need(std::size_t n) const {
    if (static_cast<std::size_t>(end_ - p_) < n)
      throw SnapshotError("corrupt arena snapshot: truncated record stream");
  }

  const std::byte* begin_ = nullptr;
  const std::byte* p_ = nullptr;
  const std::byte* end_ = nullptr;
};

/// Reusable capture scratch: free slabs, free address vectors and the alias
/// map, all retaining their capacity between captures.  Owned by
/// weave::Runtime (one per runtime — runtimes are per-thread, so no locks);
/// must outlive every ArenaSnapshot captured through it.
class ArenaPool {
 public:
  std::uint64_t captures = 0;     ///< captures (full or partial) served
  std::uint64_t slab_reuses = 0;  ///< captures that recycled a slab

  std::vector<std::byte> take_bytes() {
    if (free_bytes_.empty()) return {};
    std::vector<std::byte> out = std::move(free_bytes_.back());
    free_bytes_.pop_back();
    out.clear();
    ++slab_reuses;
    return out;
  }
  std::vector<const void*> take_addrs() {
    if (free_addrs_.empty()) return {};
    std::vector<const void*> out = std::move(free_addrs_.back());
    free_addrs_.pop_back();
    out.clear();
    return out;
  }
  void give_back(std::vector<std::byte>&& bytes,
                 std::vector<const void*>&& addrs) {
    free_bytes_.push_back(std::move(bytes));
    free_addrs_.push_back(std::move(addrs));
  }
  /// The shared alias map, cleared for a fresh capture (buckets retained).
  detail::ArenaSeenMap& seen_scratch() {
    seen_.clear();
    return seen_;
  }
  /// The restore scratch, lent to one restore at a time: a restore nested
  /// inside another finds it gone and starts from fresh buffers.
  detail::RestoreScratch take_restore_scratch() { return std::move(restore_); }
  void give_back(detail::RestoreScratch&& scratch) {
    restore_ = std::move(scratch);
  }

 private:
  std::vector<std::vector<std::byte>> free_bytes_;
  std::vector<std::vector<const void*>> free_addrs_;
  detail::ArenaSeenMap seen_;
  detail::RestoreScratch restore_;
};

/// One arena capture: the record slab plus the src_addr side vector.
/// Move-only; returns its buffers to the owning pool on destruction.
class ArenaSnapshot {
 public:
  /// An empty capture owning fresh buffers (tests, ad-hoc callers).
  ArenaSnapshot() = default;
  /// An empty capture whose buffers come from `pool` and go back to it.
  explicit ArenaSnapshot(ArenaPool& pool)
      : bytes_(pool.take_bytes()), addrs_(pool.take_addrs()), pool_(&pool) {
    ++pool.captures;
  }
  ~ArenaSnapshot() { release(); }
  ArenaSnapshot(ArenaSnapshot&& o) noexcept
      : bytes_(std::move(o.bytes_)),
        addrs_(std::move(o.addrs_)),
        node_count_(o.node_count_),
        pool_(o.pool_) {
    o.bytes_.clear();
    o.addrs_.clear();
    o.node_count_ = 0;
    o.pool_ = nullptr;
  }
  ArenaSnapshot& operator=(ArenaSnapshot&& o) noexcept {
    if (this != &o) {
      release();
      bytes_ = std::move(o.bytes_);
      addrs_ = std::move(o.addrs_);
      node_count_ = o.node_count_;
      pool_ = o.pool_;
      o.bytes_.clear();
      o.addrs_.clear();
      o.node_count_ = 0;
      o.pool_ = nullptr;
    }
    return *this;
  }
  ArenaSnapshot(const ArenaSnapshot&) = delete;
  ArenaSnapshot& operator=(const ArenaSnapshot&) = delete;

  bool empty() const { return node_count_ == 0; }
  std::size_t node_count() const { return node_count_; }
  std::size_t byte_size() const { return bytes_.size(); }

  /// Graph equality (the paper's compare): the slabs are byte-identical.
  /// Every record is a function of the node it encodes (kind, type, value,
  /// sharing) and each type has one descriptor, so equal graphs give equal
  /// bytes and unequal graphs differing ones (DESIGN.md §10).
  bool equals(const ArenaSnapshot& o) const {
    return bytes_.size() == o.bytes_.size() &&
           (bytes_.empty() ||
            std::memcmp(bytes_.data(), o.bytes_.data(), bytes_.size()) == 0);
  }

  /// The record stream, for a reader that walks it itself (restore.hpp,
  /// diff.cpp).
  ArenaCursor records() const {
    return ArenaCursor(bytes_.data(), bytes_.data() + bytes_.size());
  }
  /// The live address record `id` was captured from (null if none).
  const void* src_addr(NodeId id) const {
    return id < addrs_.size() ? addrs_[id] : nullptr;
  }

 private:
  friend class ArenaEncoder;

  void release() {
    if (pool_ != nullptr) pool_->give_back(std::move(bytes_), std::move(addrs_));
    pool_ = nullptr;
    bytes_.clear();
    addrs_.clear();
    node_count_ = 0;
  }

  std::vector<std::byte> bytes_;
  std::vector<const void*> addrs_;  ///< src_addr per ordinal (not compared)
  std::uint32_t node_count_ = 0;
  ArenaPool* pool_ = nullptr;
};

/// The preorder serializer: the one capture walker.  Public surface is
/// encode_value/encode_object; the latter is the re-entry point for
/// polymorphic dispatch (PolyOps::encode).  emit_primitive is the record
/// emission alone, for the partial walker's leaves (partial.hpp).
/// tests/golden/ freezes the node tables its records must read back into
/// (the tests' oracle, tests/testing/decoded.hpp).
class ArenaEncoder {
 public:
  ArenaEncoder(ArenaSnapshot& out, detail::ArenaSeenMap& seen)
      : out_(out), seen_(seen) {}

  template <class T>
  NodeId encode_value(const T& v, bool owned = false) {
    namespace tr = traits;
    if constexpr (tr::is_primitive_v<T>) {
      return encode_primitive(v);
    } else if constexpr (std::is_pointer_v<T>) {
      return encode_raw_pointer(v, owned);
    } else if constexpr (tr::is_smart_ptr_v<T>) {
      return encode_raw_pointer(v.get(), /*owned=*/true);
    } else if constexpr (tr::is_optional_v<T>) {
      NodeId* slot = seen_.find_or_insert(&v, detail::kOptionalDesc.name);
      if (*slot != kInvalidNode) return emit_ref(*slot);
      NodeId id = begin_composite(detail::kRecSequence, detail::kOptionalDesc,
                                  &v, v.has_value() ? 1u : 0u);
      *slot = id;  // before children: cycles resolve to this node
      if (v.has_value()) encode_value(*v);
      return id;
    } else if constexpr (tr::is_tuple_v<T>) {
      // Tuples of references are the weave layer's synthetic roots
      // (receiver + by-reference arguments); no alias registration.
      NodeId id = begin_composite(detail::kRecObject, detail::kTupleDesc, &v,
                                  std::tuple_size_v<T>);
      std::apply([&](const auto&... elems) { (encode_value(elems), ...); }, v);
      return id;
    } else if constexpr (tr::is_pair_v<T>) {
      NodeId* slot = seen_.find_or_insert(&v, detail::kPairDesc.name);
      if (*slot != kInvalidNode) return emit_ref(*slot);
      NodeId id =
          begin_composite(detail::kRecObject, detail::kPairDesc, &v, 2u);
      *slot = id;
      encode_value(v.first);
      encode_value(v.second);
      return id;
    } else if constexpr (std::is_same_v<T, std::vector<bool>>) {
      // Proxy addresses must not enter the alias map; anonymous bit nodes.
      NodeId* slot = seen_.find_or_insert(&v, detail::kSeqDesc.name);
      if (*slot != kInvalidNode) return emit_ref(*slot);
      NodeId id = begin_composite(detail::kRecSequence, detail::kSeqDesc, &v,
                                  v.size());
      *slot = id;
      for (std::size_t i = 0; i < v.size(); ++i) {
        new_node(nullptr);
        prim3(detail::kPrimBool, static_cast<bool>(v[i]) ? 1 : 0);
      }
      return id;
    } else if constexpr (tr::is_sequence_v<T> || tr::is_std_array_v<T> ||
                         tr::is_set_v<T>) {
      NodeId* slot = seen_.find_or_insert(&v, detail::kSeqDesc.name);
      if (*slot != kInvalidNode) return emit_ref(*slot);
      NodeId id = begin_composite(detail::kRecSequence, detail::kSeqDesc, &v,
                                  v.size());
      *slot = id;
      for (const auto& e : v) encode_value(e);
      return id;
    } else if constexpr (tr::is_map_v<T>) {
      NodeId* slot = seen_.find_or_insert(&v, detail::kMapDesc.name);
      if (*slot != kInvalidNode) return emit_ref(*slot);
      NodeId id = begin_composite(detail::kRecSequence, detail::kMapDesc, &v,
                                  v.size());
      *slot = id;
      for (const auto& kv : v) {
        // Entry pair nodes carry the entry address but are not registered.
        begin_composite(detail::kRecObject, detail::kPairDesc, &kv, 2u);
        encode_value(kv.first);
        encode_value(kv.second);
      }
      return id;
    } else if constexpr (reflect::is_reflected_v<T>) {
      return encode_object(v);
    } else {
      static_assert(detail::dependent_false<T>,
                    "type is not capturable: register it with FAT_REFLECT or "
                    "use a supported container/pointer/primitive type");
    }
  }

  template <reflect::Reflected T>
  NodeId encode_object(const T& v) {
    const detail::TypeDesc& desc =
        detail::ReflectedDesc<std::remove_cv_t<T>>::desc;
    NodeId* slot = seen_.find_or_insert(&v, desc.name);
    if (*slot != kInvalidNode) return emit_ref(*slot);
    NodeId id = begin_composite(detail::kRecObject, desc, &v,
                                reflect::field_count<T>());
    *slot = id;  // before children: cycles resolve to this node
    reflect::for_each_field<T>(
        [&](const auto& f) { encode_value(v.*(f.member), f.owned); });
    return id;
  }

  /// One primitive record for `v`, with no alias registration: the partial
  /// walker guards its own walk and names each leaf exactly once.
  template <class T>
  NodeId emit_primitive(const T& v) {
    const NodeId id = new_node(&v);
    if constexpr (std::is_same_v<T, bool>) {
      prim3(detail::kPrimBool, v ? 1 : 0);
    } else if constexpr (std::is_same_v<T, char>) {
      prim3(detail::kPrimChar, static_cast<std::uint8_t>(v));
    } else if constexpr (std::is_enum_v<T>) {
      prim64(detail::kPrimEnum,
             static_cast<std::uint64_t>(static_cast<std::int64_t>(
                 static_cast<std::underlying_type_t<T>>(v))));
    } else if constexpr (std::is_integral_v<T> && std::is_signed_v<T>) {
      prim64(detail::kPrimInt,
             static_cast<std::uint64_t>(static_cast<std::int64_t>(v)));
    } else if constexpr (std::is_integral_v<T>) {
      prim64(detail::kPrimUint, static_cast<std::uint64_t>(v));
    } else if constexpr (std::is_same_v<T, float>) {
      std::byte buf[6];
      buf[0] = std::byte{detail::kRecPrim};
      buf[1] = std::byte{detail::kPrimF32};
      const std::uint32_t bits = std::bit_cast<std::uint32_t>(v);
      std::memcpy(buf + 2, &bits, 4);
      append(buf, sizeof buf);
    } else if constexpr (std::is_floating_point_v<T>) {
      prim64(detail::kPrimF64,
             std::bit_cast<std::uint64_t>(static_cast<double>(v)));
    } else {
      static_assert(std::is_same_v<T, std::string>);
      std::byte buf[6];
      buf[0] = std::byte{detail::kRecPrim};
      buf[1] = std::byte{detail::kPrimString};
      const std::uint32_t len = static_cast<std::uint32_t>(v.size());
      std::memcpy(buf + 2, &len, 4);
      append(buf, sizeof buf);
      append(v.data(), v.size());
    }
    return id;
  }

 private:
  template <class T>
  NodeId encode_primitive(const T& v) {
    NodeId* slot = seen_.find_or_insert(&v, detail::prim_tag<T>());
    if (*slot != kInvalidNode) return emit_ref(*slot);
    return *slot = emit_primitive(v);  // emission leaves the map alone
  }

  template <class U>
  NodeId encode_raw_pointer(U* p, bool owned) {
    if (p == nullptr) return emit_null();
    NodeId id = new_node(nullptr);
    const std::byte buf[2] = {std::byte{detail::kRecPointer},
                              std::byte{owned ? std::uint8_t{1} : std::uint8_t{0}}};
    append(buf, sizeof buf);
    encode_pointee(const_cast<const U*>(p));
    return id;
  }

  template <class U>
  void encode_pointee(const U* p) {
    if constexpr (std::is_polymorphic_v<U>) {
      const PolyOps* ops = PolyRegistry::instance().find(typeid(U), typeid(*p));
      if (ops != nullptr) {
        // The most-derived address keys the alias map, so the same object
        // reached through different pointer types shares one node.
        // encode_object re-probes the same key (most-derived address,
        // Reflect<Derived>::name == ops->class_name) and fills the slot this
        // probe claimed — a claimed-but-unfilled slot reads as unseen.
        const void* mda = dynamic_cast<const void*>(p);
        NodeId* slot = seen_.find_or_insert(mda, ops->class_name);
        if (*slot != kInvalidNode)
          emit_ref(*slot);
        else
          ops->encode(static_cast<const void*>(p), *this);
        return;
      }
      if constexpr (reflect::is_reflected_v<U>) {
        // Unregistered dynamic type: fall back to the static type (sliced
        // capture) — mirrors the paper's "incomplete object graphs" caveat
        // (Section 5.1); it can only under- not over-report atomicity.
        encode_object(*p);
      } else {
        throw SnapshotError(std::string("unregistered polymorphic pointee: ") +
                            typeid(*p).name());
      }
    } else {
      encode_value(*p);
    }
  }

  NodeId new_node(const void* addr) {
    out_.addrs_.push_back(addr);
    return out_.node_count_++;
  }
  NodeId emit_ref(NodeId target) {
    std::byte buf[5];
    buf[0] = std::byte{detail::kRecRef};
    std::memcpy(buf + 1, &target, 4);
    append(buf, sizeof buf);
    return target;
  }
  NodeId emit_null() {
    NodeId id = new_node(nullptr);
    u8(detail::kRecNull);
    return id;
  }
  NodeId begin_composite(std::uint8_t record, const detail::TypeDesc& desc,
                         const void* addr, std::size_t count) {
    NodeId id = new_node(addr);
    std::byte buf[13];
    buf[0] = std::byte{record};
    const std::uint64_t type =
        static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(&desc));
    std::memcpy(buf + 1, &type, 8);
    const std::uint32_t n = static_cast<std::uint32_t>(count);
    std::memcpy(buf + 9, &n, 4);
    append(buf, sizeof buf);
    return id;
  }

  // One append per record where possible — per-field push_backs cost a
  // growth check each, and record emission is the inner loop.
  void prim3(std::uint8_t code, std::uint8_t payload) {
    const std::byte buf[3] = {std::byte{detail::kRecPrim}, std::byte{code},
                              std::byte{payload}};
    append(buf, sizeof buf);
  }
  void prim64(std::uint8_t code, std::uint64_t payload) {
    std::byte buf[10];
    buf[0] = std::byte{detail::kRecPrim};
    buf[1] = std::byte{code};
    std::memcpy(buf + 2, &payload, 8);
    append(buf, sizeof buf);
  }
  void u8(std::uint8_t b) { out_.bytes_.push_back(std::byte{b}); }
  void append(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::byte*>(p);
    out_.bytes_.insert(out_.bytes_.end(), b, b + n);
  }

  ArenaSnapshot& out_;
  detail::ArenaSeenMap& seen_;
};

/// Captures the object graph rooted at `root` (the paper's deep_copy).  With
/// a pool, slab/address buffers and the alias map are recycled; without one
/// (tests, ad-hoc callers) the capture owns fresh buffers.
template <class T>
ArenaSnapshot arena_capture(const T& root, ArenaPool* pool) {
  ArenaSnapshot out = pool != nullptr ? ArenaSnapshot(*pool) : ArenaSnapshot();
  detail::ArenaSeenMap local;
  ArenaEncoder e(out, pool != nullptr ? pool->seen_scratch() : local);
  e.encode_value(root, /*owned=*/false);
  return out;
}

template <class T>
ArenaSnapshot arena_capture(const T& root) {
  return arena_capture(root, static_cast<ArenaPool*>(nullptr));
}

}  // namespace fatomic::snapshot
