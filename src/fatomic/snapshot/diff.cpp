#include "fatomic/snapshot/diff.hpp"

#include <set>
#include <sstream>
#include <utility>

namespace fatomic::snapshot {

namespace {

struct PrimPrinter {
  std::ostream& os;
  void operator()(bool v) { os << (v ? "true" : "false"); }
  void operator()(char v) { os << '\'' << v << '\''; }
  void operator()(std::int64_t v) { os << v; }
  void operator()(std::uint64_t v) { os << v; }
  void operator()(F32Bits v) { os << v.value(); }
  void operator()(F64Bits v) { os << v.value(); }
  void operator()(std::string_view v) { os << '"' << v << '"'; }
};

std::string render(const Snapshot& s, NodeId id) {
  if (id == kInvalidNode) return "(none)";
  const Node& n = s.node(id);
  std::ostringstream os;
  switch (n.kind) {
    case NodeKind::Primitive:
      std::visit(PrimPrinter{os}, n.value);
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

class Differ {
 public:
  Differ(const Snapshot& a, const Snapshot& b, std::size_t limit)
      : a_(a), b_(b), limit_(limit) {}

  std::vector<Difference> run() {
    walk(a_.root(), b_.root(), "root");
    return std::move(out_);
  }

 private:
  void report(const std::string& path, NodeId na, NodeId nb) {
    if (out_.size() < limit_)
      out_.push_back(Difference{path, render(a_, na), render(b_, nb)});
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
  std::vector<Difference> out_;
  std::set<std::pair<NodeId, NodeId>> visited_;
};

}  // namespace

std::vector<Difference> diff(const Snapshot& a, const Snapshot& b,
                             std::size_t limit) {
  if (a.equals(b)) return {};
  auto out = Differ(a, b, limit).run();
  if (out.empty()) {
    // Equality is alias-structure-sensitive; a sharing-only difference may
    // not surface through the per-path walk.  Report it generically.
    out.push_back(Difference{"root", "(different pointer sharing)",
                             "(different pointer sharing)"});
  }
  return out;
}

std::string to_string(const Difference& d) {
  return d.path + ": " + d.before + " != " + d.after;
}

std::string first_difference(const Snapshot& a, const Snapshot& b) {
  auto ds = diff(a, b, 1);
  return ds.empty() ? "" : to_string(ds[0]);
}

}  // namespace fatomic::snapshot
