// Rendered products of the static analyzer: the witness that a refactor of
// the passes changes no pass output.
//
// The files tests/golden/static_<product>.txt were written by the scanners
// as they stood before the passes shared one token grammar
// (analyze/tokens).  test_static_witness.cpp asserts that scan_sources and
// analyze_sources over the subject tree still render to them byte for byte.
//
// One file per product:
//
//   model       the SourceModel (Pass 0): classes, function definitions
//               with their parameters and body token counts, and every
//               harvested name table.  File paths are relative to the scan
//               root.
//   effects     every EffectSummary and helper FnSummary (Pass 1).
//   write_sets  every MethodWriteSet with its plan (Pass 3).
//   graph       the static call graph (Pass 4).
//   alias       every FnAliasInfo (Pass 5).
//
// The effects and write_sets files hold two sections.  "== context_sensitive
// on" is this build's rendering.  "== context_sensitive off" holds the
// products of the retired pre-Pass-4 analysis, frozen as data when that
// mode was removed: the witness carries it over verbatim, and
// StaticMonotonicity checks the live products against it.
#pragma once

#include <cstddef>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "fatomic/analyze/alias.hpp"
#include "fatomic/analyze/static_report.hpp"

namespace static_witness {

namespace analyze = fatomic::analyze;

/// Items joined by `sep`, "-" for none.
template <class Items>
std::string join(const Items& items, const char* sep = ",") {
  std::ostringstream os;
  bool first = true;
  for (const auto& item : items) {
    os << (first ? "" : sep) << item;
    first = false;
  }
  return first ? "-" : os.str();
}

inline std::string render_model(const analyze::SourceModel& m) {
  std::ostringstream os;
  for (const auto& [name, cm] : m.classes) {
    os << "class " << name << " reflected=" << cm.reflected
       << " ctor_info=" << cm.has_ctor_info << '\n';
    os << "  fields " << join(cm.fields) << '\n';
    os << "  instrumented " << join(cm.instrumented) << '\n';
    os << "  statics " << join(cm.statics) << '\n';
    for (const auto& [method, types] : cm.declared_throws)
      os << "  throws " << method << ' ' << join(types) << '\n';
  }
  for (const analyze::FunctionDef& f : m.functions) {
    os << "fn " << (f.class_name.empty() ? "" : f.class_name + "::") << f.name
       << (f.is_const ? " const" : "") << " (";
    for (std::size_t i = 0; i < f.params.size(); ++i) {
      const analyze::Param& p = f.params[i];
      os << (i ? ", " : "") << (p.is_const ? "const " : "")
         << (p.name.empty() ? "_" : p.name) << (p.is_ref ? "&" : "")
         << (p.is_ptr ? "*" : "");
    }
    os << ") tokens=" << f.body.size() << " file=" << f.file << '\n';
  }
  // The model keeps names as symbol ids: spell them, in text order.
  auto names = [&m](analyze::NameFact fact) {
    std::set<std::string> out;
    for (analyze::Sym s = 0; s < m.facts.size(); ++s)
      if (m.has(s, fact)) out.insert(m.symbols.text(s));
    return out;
  };
  std::map<std::string, std::set<std::string>> bases;
  for (const auto& [derived, bs] : m.bases)
    for (const analyze::Sym b : bs)
      bases[m.symbols.text(derived)].insert(m.symbols.text(b));
  os << "instrumented_names " << join(names(analyze::kInstrumentedName))
     << '\n';
  os << "clean_const_names " << join(names(analyze::kCleanConstName)) << '\n';
  for (const auto& [name, type] : m.declared_types)
    os << "declared " << name << ": " << type << '\n';
  os << "class_names " << join(names(analyze::kClassName)) << '\n';
  os << "enum_names " << join(names(analyze::kEnumName)) << '\n';
  for (const auto& [derived, base_names] : bases)
    os << "bases " << derived << ' ' << join(base_names) << '\n';
  os << "poly_classes " << join(names(analyze::kPolyClass)) << '\n';
  for (const std::string& f : m.files) os << "file " << f << '\n';
  return os.str();
}

inline std::string render_effects(const analyze::EffectAnalysis& e) {
  std::ostringstream os;
  for (const auto& [name, es] : e.methods) {
    os << "method " << name << ' ' << es.verdict() << " class=" << es.class_name
       << " name=" << es.method_name << " static=" << es.is_static
       << " catches=" << es.catches << " mut=" << es.mutation_events
       << " throw=" << es.throw_events << " write_top=" << es.write_top
       << " writes=" << join(es.write_names)
       << " reasons=" << join(es.write_top_reasons, "; ") << '\n';
  }
  for (const auto& [key, s] : e.helpers) {
    os << "helper " << key << " env=" << s.mutates_env
       << " params=" << s.mutates_params << " throws=" << s.may_throw
       << " catches=" << s.catches << " writes=" << join(s.writes)
       << (s.writes_unknown ? "+?" : "")
       << " param_writes=" << join(s.param_writes)
       << (s.param_writes_unknown ? "+?" : "")
       << " positions=" << join(s.write_param_positions)
       << (s.param_positions_unknown ? "+?" : "") << '\n';
  }
  return os.str();
}

inline std::string render_write_sets(const analyze::WriteSetAnalysis& w) {
  std::ostringstream os;
  for (const auto& [name, ws] : w.methods) {
    os << name << " top=" << ws.top << " names=" << join(ws.names)
       << " plan=" << (ws.plan.partial ? "partial" : "full")
       << " capture=" << join(ws.plan.capture)
       << " prune=" << join(ws.plan.prune)
       << " reasons=" << join(ws.top_reasons, "; ") << '\n';
  }
  return os.str();
}

inline std::string render_graph(const analyze::StaticCallGraph& g) {
  std::ostringstream os;
  using Edges = std::map<std::string, std::set<std::string>>;
  const std::pair<const char*, const Edges*> sections[] = {
      {"calls", &g.calls},
      {"ctors", &g.ctor_classes},
      {"propagate", &g.may_propagate},
      {"raise", &g.may_raise_explicit},
  };
  for (const auto& [label, edges] : sections)
    for (const auto& [node, targets] : *edges)
      os << label << ' ' << node << ": " << join(targets) << '\n';
  for (const std::string& node : g.open) os << "open " << node << '\n';
  return os.str();
}

inline std::string render_target(const analyze::AliasTarget& t) {
  switch (t.kind) {
    case analyze::AliasTarget::Kind::Local:
      return "local";
    case analyze::AliasTarget::Kind::Field:
      return "field{" + join(t.roots) + "}";
    case analyze::AliasTarget::Kind::Param:
      return "param{" + join(t.positions) + " | " + join(t.roots) + "}";
    case analyze::AliasTarget::Kind::Top:
      return "top";
  }
  return "?";
}

inline std::string render_aliases(const analyze::AliasAnalysis& a) {
  std::ostringstream os;
  for (const auto& [key, fi] : a.by_key) {
    os << "fn " << key << " this_top=" << fi.this_top
       << " this_sinks=" << join(fi.this_sinks)
       << " tied=" << join(fi.tied_positions)
       << " has_return=" << fi.has_return
       << " returns=" << render_target(fi.returns) << '\n';
    for (const auto& [name, t] : fi.locals)
      os << "  local " << name << ' ' << render_target(t) << '\n';
  }
  return os.str();
}

/// Every product of one report, by file stem.  The alias facts come from
/// the model, as analyze_effects computes them.
inline std::map<std::string, std::string> render(
    const analyze::StaticReport& r) {
  return {
      {"model", render_model(r.model)},
      {"effects", render_effects(r.effects)},
      {"write_sets", render_write_sets(r.write_sets)},
      {"graph", render_graph(r.graph)},
      {"alias", render_aliases(analyze::analyze_aliases(r.model))},
  };
}

/// Products whose file holds a live `on` and a frozen `off` section.
inline bool per_mode(const std::string& product) {
  return product == "effects" || product == "write_sets";
}

inline const std::string kOnHeader = "== context_sensitive on\n";
inline const std::string kOffHeader = "== context_sensitive off\n";

/// The frozen `off` section of a per-mode file's text: everything after its
/// header line, empty when the file has none.
inline std::string off_section(const std::string& text) {
  const std::size_t at = text.find("\n" + kOffHeader);
  return at == std::string::npos ? "" : text.substr(at + 1 + kOffHeader.size());
}

/// The expected file contents of `product`: this build's rendering, and for
/// a per-mode product the committed `off` section after it.
inline std::string file_text(const std::string& product,
                             const std::map<std::string, std::string>& on,
                             const std::string& committed) {
  if (!per_mode(product)) return on.at(product);
  return kOnHeader + on.at(product) + kOffHeader + off_section(committed);
}

inline std::string golden_path(const std::string& product) {
  return std::string(FATOMIC_GOLDEN_DIR) + "/static_" + product + ".txt";
}

/// The committed file for `product`; empty when it is missing.
inline std::string golden(const std::string& product) {
  std::ifstream in(golden_path(product), std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// "" when equal, else the first differing line of each text.
inline std::string first_difference(const std::string& expected,
                                    const std::string& actual) {
  if (expected == actual) return {};
  std::istringstream e(expected), a(actual);
  std::string el, al;
  for (std::size_t line = 1;; ++line) {
    const bool more_e = static_cast<bool>(std::getline(e, el));
    const bool more_a = static_cast<bool>(std::getline(a, al));
    if (!more_e && !more_a)
      return "texts differ only in their final newline";
    if (more_e != more_a || el != al)
      return "line " + std::to_string(line) + "\n  expected: " +
             (more_e ? el : "<end of file>") + "\n  actual:   " +
             (more_a ? al : "<end of file>");
  }
}

}  // namespace static_witness
