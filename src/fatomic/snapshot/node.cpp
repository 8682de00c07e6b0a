#include "fatomic/snapshot/node.hpp"

#include <functional>
#include <sstream>

namespace fatomic::snapshot {

namespace {

void hash_combine(std::size_t& seed, std::size_t v) {
  seed ^= v + 0x9e3779b97f4a7c15ull + (seed << 6) + (seed >> 2);
}

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

struct PrimHasher {
  std::size_t operator()(bool v) const { return std::hash<bool>{}(v); }
  std::size_t operator()(char v) const { return std::hash<char>{}(v); }
  std::size_t operator()(std::int64_t v) const {
    return std::hash<std::int64_t>{}(v);
  }
  std::size_t operator()(std::uint64_t v) const {
    return std::hash<std::uint64_t>{}(v);
  }
  std::size_t operator()(F32Bits v) const {
    return std::hash<std::uint32_t>{}(v.bits);
  }
  std::size_t operator()(F64Bits v) const {
    return std::hash<std::uint64_t>{}(v.bits);
  }
  std::size_t operator()(std::string_view v) const {
    return std::hash<std::string_view>{}(v);
  }
};

}  // namespace

std::size_t Snapshot::hash() const {
  std::size_t seed = nodes_.size();
  hash_combine(seed, root_);
  for (const Node& n : nodes_) {
    hash_combine(seed, static_cast<std::size_t>(n.kind));
    hash_combine(seed, std::hash<std::string_view>{}(n.type_name));
    hash_combine(seed, n.value.index());
    hash_combine(seed, std::visit(PrimHasher{}, n.value));
    hash_combine(seed, n.pointee);
    hash_combine(seed, n.owned_edge ? 1u : 0u);
    for (NodeId c : n.children) hash_combine(seed, c);
  }
  return seed;
}

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
