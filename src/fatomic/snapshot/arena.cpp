#include "fatomic/snapshot/arena.hpp"

#include <memory>

#include "fatomic/common/error.hpp"

namespace fatomic::snapshot {

namespace {

/// Replays the record stream into a node table.  Records are emitted in
/// node-creation order, so `next_id_` reproduces the record ordinals and
/// Ref records resolve to already-parsed nodes.  A full capture is one
/// value; a partial capture is a run of top-level leaf records.
class Reader {
 public:
  Reader(const std::vector<std::byte>& bytes,
         const std::vector<const void*>& addrs, std::vector<Node>& out)
      : p_(bytes.data()), end_(bytes.data() + bytes.size()), addrs_(addrs),
        nodes_(out) {}

  bool done() const { return p_ == end_; }

  NodeId parse() {
    const std::uint8_t tag = u8();
    if (tag == detail::kRecRef) return static_cast<NodeId>(u32());
    const NodeId id = next_id_++;
    nodes().emplace_back();
    nodes()[id].src_addr = id < addrs_.size() ? addrs_[id] : nullptr;
    switch (tag) {
      case detail::kRecPrim:
        parse_prim(id);
        break;
      case detail::kRecObject:
      case detail::kRecSequence: {
        const auto* desc = reinterpret_cast<const detail::TypeDesc*>(
            static_cast<std::uintptr_t>(u64()));
        const std::uint32_t count = u32();
        nodes()[id].kind = tag == detail::kRecObject ? NodeKind::Object
                                                     : NodeKind::Sequence;
        nodes()[id].type_name = desc->name;
        nodes()[id].field_names = desc->field_names;
        std::vector<NodeId> kids;
        kids.reserve(count);
        // Recursion may grow nodes(); never hold a Node& across parse().
        for (std::uint32_t i = 0; i < count; ++i) kids.push_back(parse());
        nodes()[id].children = std::move(kids);
        break;
      }
      case detail::kRecPointer: {
        const bool owned = u8() != 0;
        nodes()[id].kind = NodeKind::Pointer;
        nodes()[id].type_name = owned ? "owned_ptr" : "ptr";
        nodes()[id].owned_edge = owned;
        const NodeId pointee = parse();
        nodes()[id].pointee = pointee;
        break;
      }
      case detail::kRecNull:
        nodes()[id].kind = NodeKind::NullPointer;
        nodes()[id].type_name = "nullptr";
        break;
      default:
        throw SnapshotError("corrupt arena snapshot: unknown record tag");
    }
    return id;
  }

 private:
  void parse_prim(NodeId id) {
    Node& n = nodes()[id];  // leaf record: no recursion below
    n.kind = NodeKind::Primitive;
    switch (u8()) {
      case detail::kPrimBool:
        n.type_name = "bool";
        n.value = u8() != 0;
        break;
      case detail::kPrimChar:
        n.type_name = "char";
        n.value = static_cast<char>(u8());
        break;
      case detail::kPrimEnum:
        n.type_name = "enum";
        n.value = static_cast<std::int64_t>(u64());
        break;
      case detail::kPrimInt:
        n.type_name = "int";
        n.value = static_cast<std::int64_t>(u64());
        break;
      case detail::kPrimUint:
        n.type_name = "uint";
        n.value = u64();
        break;
      case detail::kPrimF32:
        n.type_name = "float";
        n.value = F32Bits{u32()};
        break;
      case detail::kPrimF64:
        n.type_name = "float";
        n.value = F64Bits{u64()};
        break;
      case detail::kPrimString: {
        n.type_name = "string";
        const std::uint32_t len = u32();
        need(len);
        n.value = std::string_view(reinterpret_cast<const char*>(p_), len);
        p_ += len;
        break;
      }
      default:
        throw SnapshotError("corrupt arena snapshot: unknown primitive code");
    }
  }

  std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(*p_++);
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v;
    std::memcpy(&v, p_, sizeof v);
    p_ += sizeof v;
    return v;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v;
    std::memcpy(&v, p_, sizeof v);
    p_ += sizeof v;
    return v;
  }
  void need(std::size_t n) const {
    if (static_cast<std::size_t>(end_ - p_) < n)
      throw SnapshotError("corrupt arena snapshot: truncated record stream");
  }

  std::vector<Node>& nodes() { return nodes_; }

  const std::byte* p_;
  const std::byte* end_;
  const std::vector<const void*>& addrs_;
  std::vector<Node>& nodes_;
  NodeId next_id_ = 0;
};

}  // namespace

bool ArenaSnapshot::equals(const ArenaSnapshot& o, bool* used_memcmp) const {
  if (used_memcmp != nullptr) *used_memcmp = true;
  if (identical(o)) return true;
  if (bytes_.size() != o.bytes_.size()) return false;
  // Same length, different bytes: equal graphs can still differ in a type
  // word (one type name with two descriptors, e.g. duplicated across shared
  // objects), so the decoded tables decide.
  if (used_memcmp != nullptr) *used_memcmp = false;
  return decode().equals(o.decode());
}

Snapshot ArenaSnapshot::decode() const& {
  Snapshot s;
  if (node_count_ == 0) return s;
  s.nodes_.reserve(node_count_);
  Reader r(bytes_, addrs_, s.nodes_);
  s.root_ = r.parse();
  while (!r.done()) r.parse();
  return s;
}

Snapshot ArenaSnapshot::decode() && {
  auto owner = std::make_shared<const ArenaSnapshot>(std::move(*this));
  Snapshot s = owner->decode();
  s.slab_ = std::move(owner);
  return s;
}

}  // namespace fatomic::snapshot
