#include "fatomic/snapshot/diff.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <sstream>
#include <string_view>
#include <unordered_set>
#include <utility>

#include "fatomic/common/error.hpp"
#include "fatomic/snapshot/arena.hpp"

namespace fatomic::snapshot {

namespace {

/// The tag of an empty checkpoint's missing root.
constexpr std::uint8_t kNoRecord = 0xFF;

/// One record's header: its tag and the payload the tag announces.
struct Head {
  std::uint8_t tag = kNoRecord;
  ArenaCursor::Composite composite{};  ///< object and sequence records
  ArenaCursor::Leaf leaf{};            ///< primitive records
  bool owned = false;                  ///< pointer records
};

/// How many values follow a record's header: its fields or elements, or a
/// pointer's pointee.
std::uint32_t values_under(const Head& h) {
  switch (h.tag) {
    case detail::kRecObject:
    case detail::kRecSequence:
      return h.composite.count;
    case detail::kRecPointer:
      return 1;
    default:
      return 0;
  }
}

void print_leaf(std::ostream& os, const ArenaCursor::Leaf& leaf) {
  switch (leaf.code) {
    case detail::kPrimBool:
      os << (leaf.bits != 0 ? "true" : "false");
      break;
    case detail::kPrimChar:
      os << '\'' << static_cast<char>(leaf.bits) << '\'';
      break;
    case detail::kPrimUint:
      os << leaf.bits;
      break;
    case detail::kPrimF32:
      os << std::bit_cast<float>(static_cast<std::uint32_t>(leaf.bits));
      break;
    case detail::kPrimF64:
      os << std::bit_cast<double>(leaf.bits);
      break;
    case detail::kPrimString:
      os << '"' << leaf.text << '"';
      break;
    default:  // enum, int
      os << static_cast<std::int64_t>(leaf.bits);
  }
}

std::string render(const Head& h) {
  std::ostringstream os;
  switch (h.tag) {
    case detail::kRecPrim:
      print_leaf(os, h.leaf);
      break;
    case detail::kRecObject:
      os << h.composite.desc->name << "{...}";
      break;
    case detail::kRecSequence:
      os << h.composite.desc->name << '[' << h.composite.count << ']';
      break;
    case detail::kRecPointer:
      os << (h.owned ? "owned ptr" : "ptr");
      break;
    case detail::kRecNull:
      os << "nullptr";
      break;
    default:
      os << "(none)";
  }
  return os.str();
}

/// One checkpoint's side of the walk: one cursor over its records and, per
/// ordinal read so far, where the record starts and, once it has been read
/// through, where it ends.  Ordinals are dense preorder, so reading on from
/// a record's offset with `next_` set to its ordinal numbers the records as
/// capture did (as Replayer does).
class Side {
 public:
  /// A value position the walk entered: the ordinal of the record there,
  /// and for a back-reference where the cursor goes back to.
  struct Visit {
    NodeId id;
    bool ref;
    std::size_t back;
    NodeId next;
  };

  explicit Side(const ArenaSnapshot& cp) : in_(cp.records()) {
    at_.reserve(cp.node_count());
  }

  /// The root record's header, or kNoRecord for an empty checkpoint.
  Head root() { return in_.done() ? Head{} : head(); }

  /// Enters the value at the cursor; a back-reference seeks to its target.
  Visit enter() {
    if (in_.peek() != detail::kRecRef) return {next_, false, 0, 0};
    in_.u8();
    const NodeId t = in_.u32();
    if (t >= at_.size())
      throw SnapshotError(
          "corrupt arena snapshot: reference to an unknown record");
    const Visit v{t, true, in_.offset(), next_};
    in_.seek(at_[t].offset);
    next_ = t;
    return v;
  }

  /// Reads the header of the record at the cursor.
  Head head() {
    if (next_ == at_.size()) at_.push_back({in_.offset(), 0, 0});
    ++next_;
    Head h;
    h.tag = in_.u8();
    switch (h.tag) {
      case detail::kRecPrim:
        h.leaf = in_.prim();
        break;
      case detail::kRecObject:
      case detail::kRecSequence:
        h.composite = in_.composite();
        break;
      case detail::kRecPointer:
        h.owned = in_.u8() != 0;
        break;
      case detail::kRecNull:
        break;
      default:
        throw SnapshotError("corrupt arena snapshot: unknown record tag");
    }
    return h;
  }

  /// Leaves visit `v` with `unread` values of it not yet read: a
  /// back-reference seeks back, so its target is never read through, and a
  /// record in place is read on to its end.
  void leave(const Visit& v, std::uint32_t unread) {
    if (v.ref) {
      in_.seek(v.back);
      next_ = v.next;
      return;
    }
    for (; unread > 0; --unread) skip();
  }

 private:
  struct Entry {
    std::size_t offset;
    std::size_t end;  ///< 0 until the record has been read through
    NodeId next;      ///< the ordinal after the record's subtree
  };

  /// Reads past one value, numbering every record in it; a record read
  /// through before is stepped over.
  void skip() {
    if (in_.peek() == detail::kRecRef) {
      in_.u8();
      in_.u32();
      return;
    }
    const NodeId id = next_;
    if (id < at_.size() && at_[id].end != 0) {
      in_.seek(at_[id].end);
      next_ = at_[id].next;
      return;
    }
    for (std::uint32_t n = values_under(head()); n > 0; --n) skip();
    at_[id].end = in_.offset();
    at_[id].next = next_;
  }

  ArenaCursor in_;
  std::vector<Entry> at_;
  NodeId next_ = 0;  ///< the ordinal of the next record the cursor reads
};

class Differ {
 public:
  Differ(const ArenaSnapshot& a, const ArenaSnapshot& b, std::size_t limit)
      : a_(a), b_(b), limit_(limit), empty_(a.empty() || b.empty()) {}

  std::vector<Difference> run() {
    if (empty_)
      report("root", a_.root(), b_.root());
    else
      walk("root");
    return std::move(out_);
  }

 private:
  bool full() const { return out_.size() >= limit_; }

  void report(const std::string& path, const Head& x, const Head& y) {
    if (!full()) out_.push_back(Difference{path, render(x), render(y)});
  }

  /// Compares the values at both cursors and leaves both cursors after
  /// them (until the limit is reached, after which nothing is read).
  void walk(const std::string& path) {
    if (full()) return;
    const Side::Visit va = a_.enter();
    const Side::Visit vb = b_.enter();
    // Cycle guard: each record pair is compared once.
    if (!visited_.insert((std::uint64_t{va.id} << 32) | vb.id).second) {
      a_.leave(va, 1);
      b_.leave(vb, 1);
      return;
    }
    const Head x = a_.head();
    const Head y = b_.head();
    std::uint32_t unread_a = values_under(x);
    std::uint32_t unread_b = values_under(y);
    if (x.tag != y.tag) {
      report(path, x, y);  // do not descend into structurally different values
    } else if (x.tag == detail::kRecPrim) {
      if (x.leaf.code != y.leaf.code || x.leaf.bits != y.leaf.bits ||
          x.leaf.text != y.leaf.text)
        report(path, x, y);
    } else if (x.tag == detail::kRecPointer) {
      if (x.owned != y.owned) {
        report(path, x, y);
      } else {
        walk(path + "->");
        unread_a = unread_b = 0;
      }
    } else if (x.tag != detail::kRecNull) {
      const bool object = x.tag == detail::kRecObject;
      if (std::string_view(x.composite.desc->name) !=
              std::string_view(y.composite.desc->name) ||
          (object && x.composite.count != y.composite.count)) {
        report(path, x, y);
      } else {
        if (x.composite.count != y.composite.count)
          report(path + ".length", x, y);
        // A sequence still compares the common prefix: usually the
        // interesting part.
        const std::uint32_t common =
            std::min(x.composite.count, y.composite.count);
        const char* const* names = x.composite.desc->field_names;
        for (std::uint32_t i = 0; i < common; ++i) {
          if (!object)
            walk(path + '[' + std::to_string(i) + ']');
          else if (names != nullptr)
            walk(path + '.' + names[i]);
          else
            walk(path + '.' + std::to_string(i));
        }
        unread_a -= common;
        unread_b -= common;
      }
    }
    if (full()) return;
    a_.leave(va, unread_a);
    b_.leave(vb, unread_b);
  }

  Side a_;
  Side b_;
  std::size_t limit_;
  bool empty_;
  std::vector<Difference> out_;
  std::unordered_set<std::uint64_t> visited_;
};

}  // namespace

std::vector<Difference> diff(const ArenaSnapshot& a, const ArenaSnapshot& b,
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

}  // namespace fatomic::snapshot
