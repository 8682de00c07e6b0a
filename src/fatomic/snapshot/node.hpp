// Snapshot node table: the named, decoded view of a checkpoint (Definition 1
// in the paper).
//
// Checkpoints are arena record streams (arena.hpp); ArenaSnapshot::decode()
// turns one into this flat table of nodes.  Node ids follow the capture
// walk's deterministic depth-first pre-order (field declaration order for
// objects, iteration order for containers), so two captures of structurally
// equal object graphs decode to identical tables, and object-graph equality
// — including pointer-sharing structure — reduces to an elementwise table
// comparison.  Diffs, footprints and the tests' oracle read this view;
// compare and restore read the record stream itself (arena.hpp,
// restore.hpp).
#pragma once

#include <bit>
#include <cstdint>
#include <memory>
#include <string_view>
#include <variant>
#include <vector>

namespace fatomic::snapshot {

using NodeId = std::uint32_t;
inline constexpr NodeId kInvalidNode = 0xFFFFFFFFu;

/// Floating-point leaves stored by bit pattern.  Rollback equality is the
/// paper's *state identity*, not numeric equality: two distinct NaN
/// payloads, -0.0 vs +0.0, or a denormal that would be flushed by a
/// float->double round trip are different states and must compare as such.
/// The wrappers keep the exact 32/64-bit image and compare it verbatim.
struct F32Bits {
  std::uint32_t bits = 0;
  float value() const { return std::bit_cast<float>(bits); }
  friend bool operator==(const F32Bits&, const F32Bits&) = default;
};

struct F64Bits {
  std::uint64_t bits = 0;
  double value() const { return std::bit_cast<double>(bits); }
  friend bool operator==(const F64Bits&, const F64Bits&) = default;
};

/// Canonical storage for primitive leaves.  All signed integral types map to
/// int64_t, unsigned to uint64_t, floating point to a bitwise image (F32Bits
/// for float, F64Bits for everything wider); this keeps comparison exact
/// while bounding the variant size.  String leaves are views into the slab
/// the table was decoded from: decoding never copies a string payload, and
/// restore copies it once, straight into the live object.
using Prim = std::variant<bool, char, std::int64_t, std::uint64_t, F32Bits,
                          F64Bits, std::string_view>;

enum class NodeKind : std::uint8_t {
  Primitive,    ///< leaf value
  Object,       ///< reflected class; children = field nodes in order
  Sequence,     ///< container / array / optional; children = element nodes
  Pointer,      ///< non-null pointer; `pointee` is the referenced node
  NullPointer,  ///< null pointer (no children, per Definition 1)
};

struct Node {
  NodeKind kind = NodeKind::Primitive;
  /// Static type name (Reflect<T>::name for objects, a fixed tag otherwise);
  /// for pointers to polymorphic bases this is the *dynamic* class name,
  /// the name restore re-creates the derived object from.
  const char* type_name = "";
  Prim value{};                   ///< Primitive only
  std::vector<NodeId> children;   ///< Object / Sequence only
  /// Field names parallel to `children` for reflected objects, from the
  /// type's descriptor (Reflect<T>::fields); null for every other node.
  /// Not part of equality — two nodes with the same type_name always have
  /// the same field names.
  const char* const* field_names = nullptr;
  NodeId pointee = kInvalidNode;  ///< Pointer only
  bool owned_edge = false;        ///< Pointer only: edge owns the pointee

  /// Structural equality.
  friend bool operator==(const Node& a, const Node& b) {
    return a.kind == b.kind && a.pointee == b.pointee &&
           a.owned_edge == b.owned_edge && a.children == b.children &&
           a.value == b.value &&
           std::string_view(a.type_name) == std::string_view(b.type_name);
  }
};

class ArenaSnapshot;

/// The decoded, immutable view of one checkpoint.  A view decoded from an
/// lvalue ArenaSnapshot borrows its string payloads and must not outlive it;
/// one decoded from an rvalue (snapshot::capture) owns the slab.
class Snapshot {
 public:
  Snapshot() = default;

  NodeId root() const { return root_; }
  bool empty() const { return nodes_.empty(); }
  std::size_t node_count() const { return nodes_.size(); }
  const Node& node(NodeId id) const { return nodes_[id]; }
  const std::vector<Node>& nodes() const { return nodes_; }

  /// Graph-structural equality (see file comment for why elementwise
  /// comparison is sufficient).
  bool equals(const Snapshot& other) const {
    return root_ == other.root_ && nodes_ == other.nodes_;
  }

  /// Human-readable dump for diagnostics and tests.
  std::string to_string() const;

 private:
  friend class ArenaSnapshot;  // decode() builds the table (arena.cpp)
  std::vector<Node> nodes_;
  NodeId root_ = kInvalidNode;
  /// The slab string leaves point into, when this view owns it.
  std::shared_ptr<const ArenaSnapshot> slab_;
};

}  // namespace fatomic::snapshot
