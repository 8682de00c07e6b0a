#include "fatomic/snapshot/node.hpp"

#include <sstream>

namespace fatomic::snapshot {

namespace {

const char* kind_name(NodeKind k) {
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

struct PrimPrinter {
  std::ostream& os;
  void operator()(bool v) { os << (v ? "true" : "false"); }
  void operator()(char v) { os << '\'' << v << '\''; }
  void operator()(std::int64_t v) { os << v; }
  void operator()(std::uint64_t v) { os << v << 'u'; }
  void operator()(F32Bits v) { os << v.value() << 'f'; }
  void operator()(F64Bits v) { os << v.value(); }
  void operator()(std::string_view v) { os << '"' << v << '"'; }
};

}  // namespace

std::string Snapshot::to_string() const {
  std::ostringstream os;
  os << "snapshot{root=" << root_ << ", nodes=" << nodes_.size() << "}\n";
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    os << "  #" << i << ' ' << kind_name(n.kind) << ' ' << n.type_name;
    switch (n.kind) {
      case NodeKind::Primitive:
        os << " = ";
        std::visit(PrimPrinter{os}, n.value);
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

}  // namespace fatomic::snapshot
