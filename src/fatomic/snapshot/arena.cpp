#include "fatomic/snapshot/arena.hpp"

#include <memory>

#include "fatomic/common/error.hpp"

namespace fatomic::snapshot {

namespace {

/// Builds the node table from the record stream.  Records are emitted in
/// node-creation order, so `next_id_` reproduces the record ordinals and
/// Ref records resolve to already-parsed nodes.  A full capture is one
/// value; a partial capture is a run of top-level leaf records.
class Reader {
 public:
  Reader(const ArenaSnapshot& cp, std::vector<Node>& out)
      : in_(cp.records()), nodes_(out) {}

  bool done() const { return in_.done(); }

  NodeId parse() {
    const std::uint8_t tag = in_.u8();
    if (tag == detail::kRecRef) return static_cast<NodeId>(in_.u32());
    const NodeId id = next_id_++;
    nodes_.emplace_back();
    // Recursion grows nodes_; never hold a Node& across parse().
    switch (tag) {
      case detail::kRecPrim:
        name_leaf(nodes_[id], in_.prim());
        break;
      case detail::kRecObject:
      case detail::kRecSequence: {
        const ArenaCursor::Composite c = in_.composite();
        nodes_[id].kind = tag == detail::kRecObject ? NodeKind::Object
                                                    : NodeKind::Sequence;
        nodes_[id].type_name = c.desc->name;
        nodes_[id].field_names = c.desc->field_names;
        std::vector<NodeId> kids;
        kids.reserve(c.count);
        for (std::uint32_t i = 0; i < c.count; ++i) kids.push_back(parse());
        nodes_[id].children = std::move(kids);
        break;
      }
      case detail::kRecPointer: {
        const bool owned = in_.u8() != 0;
        nodes_[id].kind = NodeKind::Pointer;
        nodes_[id].type_name = owned ? "owned_ptr" : "ptr";
        nodes_[id].owned_edge = owned;
        const NodeId pointee = parse();
        nodes_[id].pointee = pointee;
        break;
      }
      case detail::kRecNull:
        nodes_[id].kind = NodeKind::NullPointer;
        nodes_[id].type_name = "nullptr";
        break;
      default:
        throw SnapshotError("corrupt arena snapshot: unknown record tag");
    }
    return id;
  }

 private:
  static void name_leaf(Node& n, const ArenaCursor::Leaf& leaf) {
    static constexpr const char* kNames[] = {"bool", "char",  "enum",  "int",
                                             "uint", "float", "float", "string"};
    n.kind = NodeKind::Primitive;
    n.type_name = kNames[leaf.code];
    switch (leaf.code) {
      case detail::kPrimBool:
        n.value = leaf.bits != 0;
        break;
      case detail::kPrimChar:
        n.value = static_cast<char>(leaf.bits);
        break;
      case detail::kPrimUint:
        n.value = leaf.bits;
        break;
      case detail::kPrimF32:
        n.value = F32Bits{static_cast<std::uint32_t>(leaf.bits)};
        break;
      case detail::kPrimF64:
        n.value = F64Bits{leaf.bits};
        break;
      case detail::kPrimString:
        n.value = leaf.text;
        break;
      default:  // enum, int
        n.value = static_cast<std::int64_t>(leaf.bits);
    }
  }

  ArenaCursor in_;
  std::vector<Node>& nodes_;
  NodeId next_id_ = 0;
};

}  // namespace

Snapshot ArenaSnapshot::decode() const& {
  Snapshot s;
  if (node_count_ == 0) return s;
  s.nodes_.reserve(node_count_);
  Reader r(*this, s.nodes_);
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
