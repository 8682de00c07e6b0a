// Golden witness for the checkpoint encoder.
//
// The node tables under tests/golden/ were produced by the original
// node-table capture walker (the graph backend's Builder) before that walker
// was removed.  They are an independent record of what a capture of each
// fixture must decode to: node order, kinds, type names, field names, alias
// structure and exact leaf values.  test_backend.cpp asserts that the
// records of arena_capture(x), read back into the tests' node table
// (decoded.hpp, the library keeps no such table), reproduce every one of
// them byte for byte.
//
// The fixtures cover every shape in tests/testing/types.hpp plus one driven
// receiver per subject family (collections, xml, regexp, selfstar, net).
// Each fill_* function builds the same state every time, so tests can take
// a fixture, compare it with its witness, then mutate and restore it.
#pragma once

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "decoded.hpp"
#include "subjects/collections/rb_map.hpp"
#include "subjects/net/server.hpp"
#include "subjects/regexp/regexp.hpp"
#include "subjects/selfstar/selfstar.hpp"
#include "subjects/xml/xml.hpp"
#include "types.hpp"

namespace witness_types {

/// Reflected base with a derived type that is deliberately NOT registered
/// with FAT_POLY: capture must take the sliced fallback.
struct Creature {
  virtual ~Creature() = default;
  int legs = 0;
};
struct Spider : Creature {
  bool venomous = false;
};
struct Zoo {
  std::unique_ptr<Creature> star;
};

struct Inner {
  int x = 0;
};
struct Outer {
  Inner inner;  // &Outer == &Outer.inner: alias keys differ only by tag
  int y = 0;
};

}  // namespace witness_types

FAT_REFLECT(witness_types::Creature, FAT_FIELD(witness_types::Creature, legs));
FAT_REFLECT(witness_types::Spider, FAT_FIELD(witness_types::Spider, legs),
            FAT_FIELD(witness_types::Spider, venomous));
FAT_REFLECT(witness_types::Zoo, FAT_FIELD(witness_types::Zoo, star));
FAT_REFLECT(witness_types::Inner, FAT_FIELD(witness_types::Inner, x));
FAT_REFLECT(witness_types::Outer, FAT_FIELD(witness_types::Outer, inner),
            FAT_FIELD(witness_types::Outer, y));

namespace witness {

namespace snap = fatomic::snapshot;

// ---- the witness format ---------------------------------------------------

inline std::string quote(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    const auto u = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (u < 0x20 || u >= 0x7f) {
      char buf[5];
      std::snprintf(buf, sizeof buf, "\\x%02x", u);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + '"';
}

struct LeafPrinter {
  std::ostream& os;
  void operator()(bool v) { os << "bool:" << (v ? "true" : "false"); }
  void operator()(char v) { os << "char:" << static_cast<int>(v); }
  void operator()(std::int64_t v) { os << "i64:" << v; }
  void operator()(std::uint64_t v) { os << "u64:" << v; }
  void operator()(decoded::F32Bits v) {
    char buf[16];
    std::snprintf(buf, sizeof buf, "0x%08" PRIx32, v.bits);
    os << "f32:" << buf;
  }
  void operator()(decoded::F64Bits v) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "0x%016" PRIx64, v.bits);
    os << "f64:" << buf;
  }
  void operator()(std::string_view v) { os << "str:" << quote(v); }
};

/// Renders a node table: one line per node in id order, with field names,
/// floats as bit patterns and strings escaped.  Source addresses are left
/// out (they differ between runs).
inline std::string dump(const decoded::Snapshot& s) {
  std::ostringstream os;
  os << "root #" << s.root() << ", " << s.node_count() << " nodes\n";
  for (std::size_t i = 0; i < s.node_count(); ++i) {
    const decoded::Node& n = s.node(static_cast<decoded::NodeId>(i));
    os << '#' << i << ' ';
    switch (n.kind) {
      case decoded::NodeKind::Primitive:
        os << "prim " << n.type_name << ' ';
        std::visit(LeafPrinter{os}, n.value);
        break;
      case decoded::NodeKind::Object:
      case decoded::NodeKind::Sequence: {
        os << (n.kind == decoded::NodeKind::Object ? "object " : "seq ")
           << n.type_name << " [";
        for (std::size_t c = 0; c < n.children.size(); ++c) {
          if (c != 0) os << ' ';
          if (n.field_names != nullptr) os << n.field_names[c] << '=';
          os << '#' << n.children[c];
        }
        os << ']';
        break;
      }
      case decoded::NodeKind::Pointer:
        os << "ptr " << n.type_name << (n.owned_edge ? " owns #" : " -> #")
           << n.pointee;
        break;
      case decoded::NodeKind::NullPointer:
        os << "null " << n.type_name;
        break;
    }
    os << '\n';
  }
  return os.str();
}

/// The committed witness for `name` (tests/golden/<name>.txt); empty when
/// the file is missing.
inline std::string golden(const std::string& name) {
  std::ifstream in(std::string(FATOMIC_GOLDEN_DIR) + "/" + name + ".txt",
                   std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// ---- fixtures -------------------------------------------------------------

using namespace testing_types;

inline void fill(Plain& p) { p = Plain{7, 2.5, true, "abc"}; }

inline void fill(Nested& n) {
  fill(n.inner);
  n.values = {1, 2, 3};
  n.table = {{"k", 1}, {"z", 2}};
  n.opt = 42;
}

/// Floats that are equal as values but distinct as state, and a NaN that
/// is unequal to itself as a value but stable as state.
inline void fill_floats(std::vector<Plain>& v) {
  v.assign(4, Plain{});
  v[0].d = 0.0;
  v[1].d = -0.0;
  v[2].d = std::numeric_limits<double>::denorm_min();
  v[3].d = std::numeric_limits<double>::quiet_NaN();
}

inline void fill_floats32(std::vector<float>& v) {
  v = {0.0f, -0.0f, std::numeric_limits<float>::denorm_min(),
       std::numeric_limits<float>::quiet_NaN(), 1.5f};
}

inline void fill(LinkList& l) {
  for (int i = 1; i <= 3; ++i) l.push_front(i);
}

inline void fill(AliasPair& ap) {
  ap.owner = std::make_unique<Plain>(Plain{1, 1.0, false, "p"});
  ap.alias = ap.owner.get();
}

inline void fill(Ring& r) {
  for (int i = 1; i <= 3; ++i) r.insert(i);
}

inline void fill(RcList& l) {
  l.push_front(1);
  l.push_front(2);
}

/// Closes an RcList of two into the cycle head -> a -> head.  Call
/// open_rc_ring before the list dies, or the ring leaks.
inline void close_rc_ring(RcList& l) { l.head->next->next = l.head; }
inline void open_rc_ring(RcList& l) {
  if (l.head && l.head->next) l.head->next->next.reset();
}

inline void fill(SharedDiamond& d) {
  d.left = std::make_shared<Plain>(Plain{3, 0.5, true, "shared"});
  d.right = d.left;
}

/// Needs FAT_POLY(Shape, Circle) and FAT_POLY(Shape, Rect) in the program.
inline void fill(Drawing& dr) {
  dr.title = "scene";
  auto c = std::make_unique<Circle>();
  c->id = 1;
  c->radius = 2.0;
  auto r = std::make_unique<Rect>();
  r->id = 2;
  r->w = 3.0;
  r->h = 4.0;
  dr.shapes.push_back(std::move(c));
  dr.shapes.push_back(std::move(r));
}

inline void fill(witness_types::Zoo& zoo) {
  auto s = std::make_unique<witness_types::Spider>();
  s->legs = 8;
  s->venomous = true;
  zoo.star = std::move(s);
}

inline void fill(witness_types::Outer& o) {
  o.inner.x = 1;
  o.y = 2;
}

// One driven receiver per subject family (run in Direct mode).

inline void fill(subjects::collections::RBMap& m) {
  m.put("delta", 4);
  m.put("alpha", 1);
  m.put("echo", 5);
  m.put("bravo", 2);
  m.put("alpha", 11);
  m.remove("echo");
}

inline void fill(subjects::xml::XmlDocument& doc) {
  doc.parse(
      "<config>"
      "<component kind=\"tag\" arg=\"a/\"/>"
      "<component kind=\"uppercase\">text &amp; more</component>"
      "</config>");
  doc.add_child("config", "note", "added");
}

inline void fill(subjects::regexp::Regexp& re) {
  re.compile("(ab|cd)*e+f?");
  re.matches("ababcdeef");
}

/// The selfstar components are polymorphic; selfstar.cpp registers them.
inline void fill(subjects::selfstar::AdaptorChain& chain) {
  using namespace subjects::selfstar;
  chain.add(std::make_unique<TagAdaptor>("sys/"));
  chain.add(std::make_unique<FilterAdaptor>("drop-me"));
  chain.add(std::make_unique<UppercaseAdaptor>());
  chain.add(std::make_unique<CollectorSink>());
  Message m{"topic", "payload", 0};
  chain.process(m);
}

inline void fill(subjects::net::Server& server) {
  server.provision(2);
  server.handle("req-0");
  server.handle("req-1\tend");
}

/// Builds every witness fixture and returns (name, dump(capture(fixture)))
/// pairs.  `capture` maps a const value to a decoded::Snapshot.
template <class Capture>
std::vector<std::pair<std::string, std::string>> cases(Capture capture) {
  std::vector<std::pair<std::string, std::string>> out;
  auto add = [&](const char* name, const auto& value) {
    out.emplace_back(name, dump(capture(value)));
  };
  { Plain v; fill(v); add("plain", v); }
  { Nested v; fill(v); add("nested", v); }
  { std::vector<Plain> v; fill_floats(v); add("floats", v); }
  { std::vector<float> v; fill_floats32(v); add("floats32", v); }
  { LinkList v; fill(v); add("link_list", v); }
  { AliasPair v; fill(v); add("alias_pair", v); }
  { Ring v; fill(v); add("ring", v); }
  { RcList v; fill(v); add("rc_list", v); }
  {
    RcList v;
    fill(v);
    close_rc_ring(v);
    add("rc_ring", v);
    open_rc_ring(v);
  }
  { SharedDiamond v; fill(v); add("shared_diamond", v); }
  { Drawing v; fill(v); add("drawing", v); }
  { witness_types::Zoo v; fill(v); add("sliced_zoo", v); }
  { witness_types::Outer v; fill(v); add("first_member", v); }
  { subjects::collections::RBMap v; fill(v); add("collections_rbmap", v); }
  { subjects::xml::XmlDocument v; fill(v); add("xml_document", v); }
  { subjects::regexp::Regexp v; fill(v); add("regexp", v); }
  { subjects::selfstar::AdaptorChain v; fill(v); add("selfstar_chain", v); }
  { subjects::net::Server v; fill(v); add("net_server", v); }
  return out;
}

}  // namespace witness
