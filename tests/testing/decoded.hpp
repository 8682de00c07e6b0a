// The decoded node table: a checkpoint's record stream read back into a flat
// table of nodes (Definition 1 in the paper), and the diff over two tables.
//
// The library reads record streams directly — compare is a memcmp, restore
// and the diff walk the records (src/fatomic/snapshot/) — so this second
// representation is the tests' independent oracle.  The golden node tables
// (witness.hpp) render it; the corpus (test_graph_corpus.cpp) checks that
// byte equality agrees with table equality and that snapshot::diff names
// exactly what diff() below names.
//
// Node ids follow the capture walk's deterministic depth-first pre-order
// (field declaration order for objects, iteration order for containers):
// they are the record ordinals.  So two captures of structurally equal
// object graphs decode to identical tables, and object-graph equality —
// including pointer-sharing structure — reduces to an elementwise table
// comparison.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "fatomic/common/error.hpp"
#include "fatomic/snapshot/arena.hpp"
#include "fatomic/snapshot/diff.hpp"

namespace decoded {

namespace snap = fatomic::snapshot;
using snap::kInvalidNode;
using snap::NodeId;

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
/// the table was decoded from.
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

class Snapshot;
Snapshot decode(const snap::ArenaSnapshot& cp);
Snapshot decode(snap::ArenaSnapshot&& cp);

/// The decoded, immutable table of one checkpoint.  A table decoded from an
/// lvalue ArenaSnapshot borrows its string payloads and must not outlive it;
/// one decoded from an rvalue (capture()) owns the slab.
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
  friend Snapshot decode(const snap::ArenaSnapshot& cp);
  friend Snapshot decode(snap::ArenaSnapshot&& cp);
  std::vector<Node> nodes_;
  NodeId root_ = kInvalidNode;
  /// The slab string leaves point into, when this table owns it.
  std::shared_ptr<const snap::ArenaSnapshot> slab_;
};

namespace detail {

/// Builds the node table from the record stream.  Records are emitted in
/// node-creation order, so `next_id_` reproduces the record ordinals and
/// Ref records resolve to already-parsed nodes.  A full capture is one
/// value; a partial capture is a run of top-level leaf records.
class Reader {
 public:
  Reader(const snap::ArenaSnapshot& cp, std::vector<Node>& out)
      : in_(cp.records()), nodes_(out) {}

  bool done() const { return in_.done(); }

  NodeId parse() {
    namespace rec = snap::detail;
    const std::uint8_t tag = in_.u8();
    if (tag == rec::kRecRef) return static_cast<NodeId>(in_.u32());
    const NodeId id = next_id_++;
    nodes_.emplace_back();
    // Recursion grows nodes_; never hold a Node& across parse().
    switch (tag) {
      case rec::kRecPrim:
        name_leaf(nodes_[id], in_.prim());
        break;
      case rec::kRecObject:
      case rec::kRecSequence: {
        const snap::ArenaCursor::Composite c = in_.composite();
        nodes_[id].kind = tag == rec::kRecObject ? NodeKind::Object
                                                 : NodeKind::Sequence;
        nodes_[id].type_name = c.desc->name;
        nodes_[id].field_names = c.desc->field_names;
        std::vector<NodeId> kids;
        kids.reserve(c.count);
        for (std::uint32_t i = 0; i < c.count; ++i) kids.push_back(parse());
        nodes_[id].children = std::move(kids);
        break;
      }
      case rec::kRecPointer: {
        const bool owned = in_.u8() != 0;
        nodes_[id].kind = NodeKind::Pointer;
        nodes_[id].type_name = owned ? "owned_ptr" : "ptr";
        nodes_[id].owned_edge = owned;
        const NodeId pointee = parse();
        nodes_[id].pointee = pointee;
        break;
      }
      case rec::kRecNull:
        nodes_[id].kind = NodeKind::NullPointer;
        nodes_[id].type_name = "nullptr";
        break;
      default:
        throw fatomic::SnapshotError(
            "corrupt arena snapshot: unknown record tag");
    }
    return id;
  }

 private:
  static void name_leaf(Node& n, const snap::ArenaCursor::Leaf& leaf) {
    namespace rec = snap::detail;
    static constexpr const char* kNames[] = {"bool", "char",  "enum",  "int",
                                             "uint", "float", "float", "string"};
    n.kind = NodeKind::Primitive;
    n.type_name = kNames[leaf.code];
    switch (leaf.code) {
      case rec::kPrimBool:
        n.value = leaf.bits != 0;
        break;
      case rec::kPrimChar:
        n.value = static_cast<char>(leaf.bits);
        break;
      case rec::kPrimUint:
        n.value = leaf.bits;
        break;
      case rec::kPrimF32:
        n.value = F32Bits{static_cast<std::uint32_t>(leaf.bits)};
        break;
      case rec::kPrimF64:
        n.value = F64Bits{leaf.bits};
        break;
      case rec::kPrimString:
        n.value = leaf.text;
        break;
      default:  // enum, int
        n.value = static_cast<std::int64_t>(leaf.bits);
    }
  }

  snap::ArenaCursor in_;
  std::vector<Node>& nodes_;
  NodeId next_id_ = 0;
};

}  // namespace detail

/// The node table of `cp`: record ordinals become NodeIds, type words name
/// types and fields, string leaves view the slab.  The table borrows — it
/// must not outlive `cp`.  A partial capture decodes to one Primitive node
/// per leaf.
inline Snapshot decode(const snap::ArenaSnapshot& cp) {
  Snapshot s;
  if (cp.empty()) return s;
  s.nodes_.reserve(cp.node_count());
  detail::Reader r(cp, s.nodes_);
  s.root_ = r.parse();
  while (!r.done()) r.parse();
  return s;
}

/// The same table, owning `cp`.
inline Snapshot decode(snap::ArenaSnapshot&& cp) {
  auto owner = std::make_shared<const snap::ArenaSnapshot>(std::move(cp));
  Snapshot s = decode(*owner);
  s.slab_ = std::move(owner);
  return s;
}

/// Captures the object graph of `root` and decodes it into an owning table.
template <class T>
Snapshot capture(const T& root) {
  return decode(snap::arena_capture(root));
}

namespace detail {

inline const char* kind_name(NodeKind k) {
  switch (k) {
    case NodeKind::Primitive:
      return "prim";
    case NodeKind::Object:
      return "object";
    case NodeKind::Sequence:
      return "seq";
    case NodeKind::Pointer:
      return "ptr";
    case NodeKind::NullPointer:
      return "null";
  }
  return "?";
}

/// Leaf rendering of Snapshot::to_string (`suffixes`: 'u' after unsigned,
/// 'f' after float) and of the diff (no suffixes).
struct PrimPrinter {
  std::ostream& os;
  bool suffixes;
  void operator()(bool v) { os << (v ? "true" : "false"); }
  void operator()(char v) { os << '\'' << v << '\''; }
  void operator()(std::int64_t v) { os << v; }
  void operator()(std::uint64_t v) {
    os << v;
    if (suffixes) os << 'u';
  }
  void operator()(F32Bits v) {
    os << v.value();
    if (suffixes) os << 'f';
  }
  void operator()(F64Bits v) { os << v.value(); }
  void operator()(std::string_view v) { os << '"' << v << '"'; }
};

}  // namespace detail

inline std::string Snapshot::to_string() const {
  std::ostringstream os;
  os << "snapshot{root=" << root_ << ", nodes=" << nodes_.size() << "}\n";
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    os << "  #" << i << ' ' << detail::kind_name(n.kind) << ' ' << n.type_name;
    switch (n.kind) {
      case NodeKind::Primitive:
        os << " = ";
        std::visit(detail::PrimPrinter{os, true}, n.value);
        break;
      case NodeKind::Object:
      case NodeKind::Sequence:
        os << " [";
        for (std::size_t c = 0; c < n.children.size(); ++c) {
          if (c) os << ' ';
          os << '#' << n.children[c];
        }
        os << ']';
        break;
      case NodeKind::Pointer:
        os << (n.owned_edge ? " owns" : " ->") << " #" << n.pointee;
        break;
      case NodeKind::NullPointer:
        break;
    }
    os << '\n';
  }
  return os.str();
}

namespace detail {

inline std::string render(const Snapshot& s, NodeId id) {
  if (id == kInvalidNode) return "(none)";
  const Node& n = s.node(id);
  std::ostringstream os;
  switch (n.kind) {
    case NodeKind::Primitive:
      std::visit(PrimPrinter{os, false}, n.value);
      break;
    case NodeKind::Object:
      os << n.type_name << "{...}";
      break;
    case NodeKind::Sequence:
      os << n.type_name << "[" << n.children.size() << ']';
      break;
    case NodeKind::Pointer:
      os << (n.owned_edge ? "owned ptr" : "ptr");
      break;
    case NodeKind::NullPointer:
      os << "nullptr";
      break;
  }
  return os.str();
}

/// The diff over two node tables: walks both graphs in parallel from the
/// roots, by node id.
class Differ {
 public:
  Differ(const Snapshot& a, const Snapshot& b, std::size_t limit)
      : a_(a), b_(b), limit_(limit) {}

  std::vector<snap::Difference> run() {
    walk(a_.root(), b_.root(), "root");
    return std::move(out_);
  }

 private:
  void report(const std::string& path, NodeId na, NodeId nb) {
    if (out_.size() < limit_)
      out_.push_back(snap::Difference{path, render(a_, na), render(b_, nb)});
  }

  void walk(NodeId na, NodeId nb, const std::string& path) {
    if (out_.size() >= limit_) return;
    if (na == kInvalidNode || nb == kInvalidNode) {
      if (na != nb) report(path, na, nb);
      return;
    }
    // Cycle guard: each node pair is visited once.
    if (!visited_.insert({na, nb}).second) return;
    const Node& x = a_.node(na);
    const Node& y = b_.node(nb);
    if (x.kind != y.kind ||
        std::string_view(x.type_name) != std::string_view(y.type_name)) {
      report(path, na, nb);
      return;  // do not descend into structurally different subtrees
    }
    switch (x.kind) {
      case NodeKind::Primitive:
        if (x.value != y.value) report(path, na, nb);
        return;
      case NodeKind::NullPointer:
        return;
      case NodeKind::Pointer:
        if (x.owned_edge != y.owned_edge) {
          report(path, na, nb);
          return;
        }
        walk(x.pointee, y.pointee, path + "->");
        return;
      case NodeKind::Object: {
        if (x.children.size() != y.children.size()) {
          report(path, na, nb);
          return;
        }
        for (std::size_t i = 0; i < x.children.size(); ++i) {
          std::string child = path;
          if (x.field_names != nullptr) {
            child += '.';
            child += x.field_names[i];
          } else {
            child += "." + std::to_string(i);
          }
          walk(x.children[i], y.children[i], child);
        }
        return;
      }
      case NodeKind::Sequence: {
        if (x.children.size() != y.children.size()) {
          report(path + ".length", na, nb);
          // Still compare the common prefix: usually the interesting part.
        }
        const std::size_t common =
            std::min(x.children.size(), y.children.size());
        for (std::size_t i = 0; i < common; ++i)
          walk(x.children[i], y.children[i],
               path + '[' + std::to_string(i) + ']');
        return;
      }
    }
  }

  const Snapshot& a_;
  const Snapshot& b_;
  std::size_t limit_;
  std::vector<snap::Difference> out_;
  std::set<std::pair<NodeId, NodeId>> visited_;
};

}  // namespace detail

/// The table diff: what snapshot::diff must report for the checkpoints the
/// tables were decoded from.  Returns an empty vector iff a.equals(b).
inline std::vector<snap::Difference> diff(const Snapshot& a, const Snapshot& b,
                                          std::size_t limit = 16) {
  if (a.equals(b)) return {};
  auto out = detail::Differ(a, b, limit).run();
  if (out.empty()) {
    // Equality is alias-structure-sensitive; a sharing-only difference may
    // not surface through the per-path walk.  Report it generically.
    out.push_back(snap::Difference{"root", "(different pointer sharing)",
                                   "(different pointer sharing)"});
  }
  return out;
}

}  // namespace decoded
