#include "fatomic/analyze/write_sets.hpp"

#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "fatomic/analyze/tokens.hpp"

namespace fatomic::analyze {

namespace {

/// Declared-type words that keep a member value-like: the builtin and
/// standard value types (vocabulary.def) and the scanned enums.  Everything
/// else — pointers, references, templates, class names — rejects the member
/// as a capture target.
bool value_like_token(Sym tok, const SourceModel& model) {
  return model.symbols.has(tok, kValueLike) || model.has(tok, kEnumName);
}

/// What a subtree may contain: member names, plus whether it escapes the
/// reflected world (open) or can hold a polymorphic object (poly).
struct Reach {
  std::set<Sym> names;
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
  const SymbolTable& st = model.symbols;
  // Polymorphic closure over simple names: FAT_POLY participants, every
  // class used as a base, and transitively everything deriving from those.
  std::unordered_set<Sym> poly;
  for (Sym s = 0; s < model.facts.size(); ++s)
    if (model.has(s, kPolyClass)) poly.insert(s);
  for (const auto& [derived, bs] : model.bases)
    poly.insert(bs.begin(), bs.end());
  bool grew = true;
  while (grew) {
    grew = false;
    for (const auto& [derived, bs] : model.bases) {
      if (poly.count(derived)) continue;
      for (const Sym b : bs) {
        if (!poly.count(b)) continue;
        poly.insert(derived);
        grew = true;
        break;
      }
    }
  }

  // Every class's simple name and reflected fields, by id.
  struct ClassIds {
    Sym simple = sym::Empty;
    std::set<Sym> fields;
  };
  std::map<const ClassModel*, ClassIds> ids;
  for (const auto& [qualified, cm] : model.classes) {
    ClassIds& ci = ids[&cm];
    ci.simple = st.find(simple_of(qualified));
    for (const std::string& f : cm.fields) ci.fields.insert(st.find(f));
  }

  // Reflected classes by simple name; same-name collisions merge
  // conservatively (the walker prunes by name, so the union is sound).
  // Reflected-empty classes (FAT_REFLECT_EMPTY) participate: their contents
  // are provably nothing, which is the opposite of unknown.
  std::unordered_map<Sym, std::vector<const ClassModel*>> by_simple;
  for (const auto& [qualified, cm] : model.classes)
    if (!cm.fields.empty() || cm.reflected)
      by_simple[ids[&cm].simple].push_back(&cm);

  // Per-class reach fixpoint, mutually recursive with per-member reach
  // (member types name classes; class reach unions member reaches).
  std::map<const ClassModel*, Reach> class_reach;
  for (const auto& [qualified, cm] : model.classes) {
    Reach r;
    r.names = ids[&cm].fields;
    // Instrumented but never reflected: unknown contents.  An explicitly
    // empty reflection block stays closed — it asserts statelessness.
    r.open = cm.fields.empty() && !cm.reflected;
    r.poly = poly.count(ids[&cm].simple) > 0;
    class_reach[&cm] = r;
  }

  auto member_reach = [&](Sym name) {
    Reach r;
    const Tokens* words = model.declared(name);
    if (words == nullptr) {
      r.open = true;  // never saw a declaration: unknown contents
      return r;
    }
    for (const Sym tok : *words) {
      if (!st.ident(tok)) continue;
      if (model.has(tok, kEnumName)) continue;  // value type
      auto bs = by_simple.find(tok);
      if (bs != by_simple.end()) {
        for (const ClassModel* cm : bs->second) r.merge(class_reach[cm]);
        if (poly.count(tok)) r.poly = true;
      } else if (model.has(tok, kClassName)) {
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
      const ClassIds& ci = ids[&cm];
      Reach next;
      next.names = ci.fields;
      next.poly = poly.count(ci.simple) > 0;
      for (const Sym f : ci.fields) next.merge(member_reach(f));
      // Reflected bases contribute their subtrees (a derived object holds
      // the base's fields too).
      auto bit = model.bases.find(ci.simple);
      if (bit != model.bases.end()) {
        for (const Sym b : bit->second) {
          auto bs = by_simple.find(b);
          if (bs == by_simple.end()) continue;
          for (const ClassModel* bm : bs->second)
            next.merge(class_reach[bm]);
        }
      }
      Reach& cur = class_reach[&cm];
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
      std::set<Sym> name_ids;
      for (const std::string& n : w.names) name_ids.insert(st.find(n));
      const ClassModel* cm = model.find_class(es.class_name);
      if (cm == nullptr || (cm->fields.empty() && !cm->reflected)) {
        top("receiver class not reflected");
      } else if (poly.count(ids[cm].simple)) {
        // Known-leaf relaxation: a class on the scanned inheritance edges
        // as a derived end only — never itself a base, per both the edge
        // set and the closed-world FAT_POLY registrations — cannot receive
        // a call with any other dynamic type, so its receiver state is
        // exactly its declared fields and the collapse is unnecessary.
        // (Subtrees holding polymorphic members are still rejected by the
        // walk-set check below.)
        const Sym simple = ids[cm].simple;
        bool used_as_base = false;
        for (const auto& [derived, bs] : model.bases)
          for (const Sym b : bs)
            if (b == simple) used_as_base = true;
        if (!model.bases.count(simple) || used_as_base)
          top("polymorphic receiver");
      }
      if (!es.write_top) {
        for (const std::string& n : w.names) {
          const Tokens* words = model.declared(st.find(n));
          bool ok = words != nullptr;
          if (ok)
            for (const Sym tok : *words)
              if (!value_like_token(tok, model)) {
                ok = false;
                break;
              }
          if (!ok) top("non-value-like write target: " + n);
        }
      }
      if (cm != nullptr && !es.write_top) {
        // Prune: any name in the receiver closure whose own reach is
        // closed, monomorphic, and disjoint from the capture set.
        const ClassIds& ci = ids[cm];
        std::set<Sym> candidates = class_reach[cm].names;
        candidates.insert(ci.fields.begin(), ci.fields.end());
        std::set<Sym> pruned;
        for (const Sym n : candidates) {
          if (name_ids.count(n)) continue;
          const Reach mr = member_reach(n);
          if (mr.open || mr.poly) continue;
          bool hits = false;
          for (const Sym c : name_ids)
            if (mr.names.count(c)) {
              hits = true;
              break;
            }
          if (hits) continue;
          pruned.insert(n);
          w.plan.prune.insert(st.text(n));
        }
        // Walk-set check: every subtree the walk will enter must stay
        // within reflected, monomorphic classes.
        for (const std::string& f : cm->fields) {
          const Sym fid = st.find(f);
          if (pruned.count(fid) || name_ids.count(fid)) continue;
          const Reach mr = member_reach(fid);
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
