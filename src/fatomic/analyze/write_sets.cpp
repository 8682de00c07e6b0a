#include "fatomic/analyze/write_sets.hpp"

#include <sstream>
#include <vector>

#include "fatomic/analyze/tokens.hpp"

namespace fatomic::analyze {

namespace {

std::vector<std::string> split_ws(const std::string& s) {
  std::vector<std::string> out;
  std::istringstream in(s);
  std::string tok;
  while (in >> tok) out.push_back(tok);
  return out;
}

/// Declared-type tokens that keep a member value-like.  Everything else —
/// pointers, references, templates, class names — rejects the member as a
/// capture target.
bool value_like_token(const std::string& tok,
                      const std::set<std::string>& enum_names) {
  static const std::set<std::string> allowed = {
      "std",     "::",      "|",        "const",    "string",   "size_t",
      "int",     "bool",    "char",     "unsigned", "signed",   "long",
      "short",   "float",   "double",   "int8_t",   "int16_t",  "int32_t",
      "int64_t", "uint8_t", "uint16_t", "uint32_t", "uint64_t", "ptrdiff_t",
      "wchar_t", "char16_t", "char32_t",
  };
  return allowed.count(tok) > 0 || enum_names.count(tok) > 0;
}

/// What a subtree may contain: member names, plus whether it escapes the
/// reflected world (open) or can hold a polymorphic object (poly).
struct Reach {
  std::set<std::string> names;
  bool open = false;
  bool poly = false;

  void merge(const Reach& o) {
    names.insert(o.names.begin(), o.names.end());
    open |= o.open;
    poly |= o.poly;
  }
  bool operator==(const Reach& o) const {
    return open == o.open && poly == o.poly && names == o.names;
  }
};

/// Collapses a per-method reason to its rule family so the histogram
/// aggregates (the name-bearing suffix after ':' or 'at field' is the
/// per-method detail, not the rule).
std::string reason_family(const std::string& reason) {
  auto p = reason.find(": ");
  if (p != std::string::npos) return reason.substr(0, p);
  p = reason.find(" at field ");
  if (p != std::string::npos) return reason.substr(0, p);
  return reason;
}

/// Subject family of a qualified method name: the namespace segment under
/// `subjects::` ("subjects::collections::LinkedList::insert" ->
/// "collections").  Methods outside that convention group under "(other)".
std::string family_of(const std::string& qualified) {
  const std::string prefix = "subjects::";
  if (qualified.rfind(prefix, 0) != 0) return "(other)";
  const auto start = prefix.size();
  const auto end = qualified.find("::", start);
  if (end == std::string::npos) return "(other)";
  return qualified.substr(start, end - start);
}

}  // namespace

std::size_t WriteSetAnalysis::partial_count() const {
  std::size_t n = 0;
  for (const auto& [name, w] : methods)
    if (w.plan.partial) ++n;
  return n;
}

std::map<std::string, std::size_t> WriteSetAnalysis::top_histogram() const {
  std::map<std::string, std::size_t> out;
  for (const auto& [name, w] : methods) {
    if (!w.top) continue;
    std::set<std::string> families;  // count each family once per method
    for (const std::string& r : w.top_reasons) families.insert(reason_family(r));
    for (const std::string& f : families) ++out[f];
  }
  return out;
}

std::map<std::string, std::size_t> WriteSetAnalysis::aggregate_top_histogram()
    const {
  std::map<std::string, std::size_t> out;
  for (const auto& [name, w] : methods) {
    if (!w.top) continue;
    for (const std::string& r : w.top_reasons) ++out[reason_family(r)];
  }
  return out;
}

std::string WriteSetAnalysis::fleet_text() const {
  struct FamilyAgg {
    std::size_t partial = 0;
    std::size_t total = 0;
    std::map<std::string, std::size_t> firings;
  };
  std::map<std::string, FamilyAgg> families;
  for (const auto& [name, w] : methods) {
    FamilyAgg& agg = families[family_of(name)];
    ++agg.total;
    if (w.plan.partial) ++agg.partial;
    if (w.top)
      for (const std::string& r : w.top_reasons) ++agg.firings[reason_family(r)];
  }
  std::ostringstream os;
  os << "write-set fleet summary: " << partial_count() << " of "
     << methods.size() << " methods get a partial checkpoint plan\n";
  for (const auto& [family, agg] : families) {
    os << "  " << family << ": " << agg.partial << "/" << agg.total
       << " partial";
    if (!agg.firings.empty()) {
      os << "; top reasons:";
      bool first = true;
      for (const auto& [rule, n] : agg.firings) {
        os << (first ? " " : ", ") << rule << ' ' << n;
        first = false;
      }
    }
    os << '\n';
  }
  const auto agg = aggregate_top_histogram();
  if (!agg.empty()) {
    os << "aggregate top-reason histogram ("
       << methods.size() - partial_count()
       << " full-checkpoint methods, every firing counted):\n";
    for (const auto& [rule, n] : agg) os << "  " << rule << ": " << n << '\n';
  }
  return os.str();
}

std::string WriteSetAnalysis::to_text() const {
  std::ostringstream os;
  os << "write-set analysis: " << partial_count() << " of " << methods.size()
     << " methods get a partial checkpoint plan\n";
  for (const auto& [name, w] : methods) {
    os << "  " << name << ": ";
    if (w.top) {
      os << "full (";
      for (std::size_t i = 0; i < w.top_reasons.size(); ++i) {
        if (i) os << "; ";
        os << w.top_reasons[i];
      }
      os << ")";
    } else {
      os << snapshot::to_string(w.plan);
    }
    os << '\n';
  }
  const auto hist = top_histogram();
  if (!hist.empty()) {
    os << "top-reason histogram (" << methods.size() - partial_count()
       << " full-checkpoint methods):\n";
    for (const auto& [family, n] : hist)
      os << "  " << family << ": " << n << '\n';
  }
  return os.str();
}

WriteSetAnalysis analyze_write_sets(const SourceModel& model,
                                    const EffectAnalysis& effects) {
  // Polymorphic closure over simple names: FAT_POLY participants, every
  // class used as a base, and transitively everything deriving from those.
  std::set<std::string> poly = model.poly_classes;
  for (const auto& [derived, bs] : model.bases)
    poly.insert(bs.begin(), bs.end());
  bool grew = true;
  while (grew) {
    grew = false;
    for (const auto& [derived, bs] : model.bases) {
      if (poly.count(derived)) continue;
      for (const auto& b : bs) {
        if (!poly.count(b)) continue;
        poly.insert(derived);
        grew = true;
        break;
      }
    }
  }

  // Reflected classes by simple name; same-name collisions merge
  // conservatively (the walker prunes by name, so the union is sound).
  // Reflected-empty classes (FAT_REFLECT_EMPTY) participate: their contents
  // are provably nothing, which is the opposite of unknown.
  std::map<std::string, std::vector<const ClassModel*>> by_simple;
  for (const auto& [qualified, cm] : model.classes)
    if (!cm.fields.empty() || cm.reflected)
      by_simple[simple_of(qualified)].push_back(&cm);

  // Per-class reach fixpoint, mutually recursive with per-member reach
  // (member types name classes; class reach unions member reaches).
  std::map<std::string, Reach> class_reach;  // by qualified name
  for (const auto& [qualified, cm] : model.classes) {
    Reach r;
    r.names = cm.fields;
    // Instrumented but never reflected: unknown contents.  An explicitly
    // empty reflection block stays closed — it asserts statelessness.
    r.open = cm.fields.empty() && !cm.reflected;
    r.poly = poly.count(simple_of(qualified)) > 0;
    class_reach[qualified] = r;
  }

  auto member_reach = [&](const std::string& name) {
    Reach r;
    auto it = model.declared_types.find(name);
    if (it == model.declared_types.end()) {
      r.open = true;  // never saw a declaration: unknown contents
      return r;
    }
    for (const std::string& tok : split_ws(it->second)) {
      if (!is_ident(tok)) continue;
      if (model.enum_names.count(tok)) continue;  // value type
      auto bs = by_simple.find(tok);
      if (bs != by_simple.end()) {
        for (const ClassModel* cm : bs->second)
          r.merge(class_reach[cm->qualified_name]);
        if (poly.count(tok)) r.poly = true;
      } else if (model.class_names.count(tok)) {
        // A scanned class with no reflected fields: its contents are
        // invisible to the walker.
        r.open = true;
        if (poly.count(tok)) r.poly = true;
      }
    }
    return r;
  };

  for (int round = 0; round < 30; ++round) {
    bool changed = false;
    for (const auto& [qualified, cm] : model.classes) {
      if (cm.fields.empty()) continue;
      Reach next;
      next.names = cm.fields;
      next.poly = poly.count(simple_of(qualified)) > 0;
      for (const std::string& f : cm.fields) next.merge(member_reach(f));
      // Reflected bases contribute their subtrees (a derived object holds
      // the base's fields too).
      auto bit = model.bases.find(simple_of(qualified));
      if (bit != model.bases.end()) {
        for (const std::string& b : bit->second) {
          auto bs = by_simple.find(b);
          if (bs == by_simple.end()) continue;
          for (const ClassModel* bm : bs->second)
            next.merge(class_reach[bm->qualified_name]);
        }
      }
      Reach& cur = class_reach[qualified];
      if (!(next == cur)) {
        cur = next;
        changed = true;
      }
    }
    if (!changed) break;
  }

  // Per-method plan derivation.
  WriteSetAnalysis out;
  for (const auto& [qualified, es] : effects.methods) {
    MethodWriteSet w;
    w.qualified_name = qualified;
    auto top = [&](const std::string& reason) {
      w.top = true;
      if (w.top_reason.empty()) w.top_reason = reason;
      for (const std::string& have : w.top_reasons)
        if (have == reason) return;
      w.top_reasons.push_back(reason);
    };

    // Terminal rules first: without a scan (or with an unbounded write set)
    // the downstream checks have nothing meaningful to say.  Past those, the
    // chain keeps evaluating after a hit so `top_reasons` lists *every*
    // obstacle, not just the first.
    if (!es.scanned) {
      top("unscanned");
    } else if (es.is_static) {
      top("static method (no receiver checkpoint)");
    } else {
      if (es.catches)
        top("catches exceptions (mutations inside handlers are unmodelled)");
      if (es.write_top) {
        if (es.write_top_reasons.empty()) {
          top("unbounded write set");
        } else {
          for (const std::string& r : es.write_top_reasons) top(r);
        }
      }
      w.names = es.write_names;
      const ClassModel* cm = model.find_class(es.class_name);
      if (cm == nullptr || (cm->fields.empty() && !cm->reflected)) {
        top("receiver class not reflected");
      } else if (poly.count(simple_of(es.class_name))) {
        // Known-leaf relaxation: a class on the scanned inheritance edges
        // as a derived end only — never itself a base, per both the edge
        // set and the closed-world FAT_POLY registrations — cannot receive
        // a call with any other dynamic type, so its receiver state is
        // exactly its declared fields and the collapse is unnecessary.
        // (Subtrees holding polymorphic members are still rejected by the
        // walk-set check below.)
        const std::string simple = simple_of(es.class_name);
        bool used_as_base = false;
        for (const auto& [derived, bs] : model.bases) {
          for (const std::string& b : bs)
            if (simple_of(b) == simple) used_as_base = true;
        }
        if (!model.bases.count(simple) || used_as_base)
          top("polymorphic receiver");
      }
      if (!es.write_top) {
        for (const std::string& n : w.names) {
          auto it = model.declared_types.find(n);
          bool ok = it != model.declared_types.end();
          if (ok)
            for (const std::string& tok : split_ws(it->second))
              if (!value_like_token(tok, model.enum_names)) {
                ok = false;
                break;
              }
          if (!ok) top("non-value-like write target: " + n);
        }
      }
      if (cm != nullptr && !es.write_top) {
        // Prune: any name in the receiver closure whose own reach is
        // closed, monomorphic, and disjoint from the capture set.
        const Reach& recv = class_reach[cm->qualified_name];
        std::set<std::string> candidates = recv.names;
        candidates.insert(cm->fields.begin(), cm->fields.end());
        for (const std::string& n : candidates) {
          if (w.names.count(n)) continue;
          const Reach mr = member_reach(n);
          if (mr.open || mr.poly) continue;
          bool hits = false;
          for (const std::string& c : w.names)
            if (mr.names.count(c)) {
              hits = true;
              break;
            }
          if (!hits) w.plan.prune.insert(n);
        }
        // Walk-set check: every subtree the walk will enter must stay
        // within reflected, monomorphic classes.
        for (const std::string& f : cm->fields) {
          if (w.plan.prune.count(f) || w.names.count(f)) continue;
          const Reach mr = member_reach(f);
          if (mr.open) top("unreflected subtree at field " + f);
          else if (mr.poly) top("polymorphic subtree at field " + f);
        }
      }
      if (!w.top) {
        w.plan.partial = true;
        w.plan.capture = w.names;
      } else {
        w.plan = snapshot::CheckpointPlan{};
      }
    }
    out.methods.emplace(qualified, std::move(w));
  }
  return out;
}

}  // namespace fatomic::analyze
