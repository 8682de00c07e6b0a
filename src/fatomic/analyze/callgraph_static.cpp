#include "fatomic/analyze/callgraph_static.hpp"

#include <algorithm>
#include <cstdint>
#include <unordered_map>

#include "fatomic/analyze/tokens.hpp"
#include "fatomic/detect/callgraph.hpp"
#include "fatomic/weave/method_info.hpp"

namespace fatomic::analyze {
namespace {

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Two exception names denote the same type when equal or when one is a
/// namespace-qualified form of the other ("EmptyError" as written at the
/// throw site vs. the demangled "subjects::collections::EmptyError").
bool names_match(const std::string& a, const std::string& b) {
  return a == b || ends_with(a, "::" + b) || ends_with(b, "::" + a);
}

/// The wildcard for exceptions of statically unknown type (a `throw expr;`
/// of unresolvable type, a rethrow, an open callee).
const char* const kAny = "*";

/// One call site: its position (for catch-clause filtering) and the
/// instrumented nodes / helper keys it may reach, as ids of the Builder's
/// tables.
struct CallEvt {
  std::size_t pos = 0;
  std::vector<std::size_t> inst_nodes;
  std::vector<std::size_t> helper_keys;
};

/// The per-definition facts the fixpoint and the edge BFS consume.
struct DefFacts {
  /// Explicit throws that escape this definition's own try blocks, as
  /// (position, type id).
  std::vector<std::pair<std::size_t, std::size_t>> throws;
  std::vector<CallEvt> calls;
  /// Mentions of FAT_CTOR_INFO class simple names (their constructors may
  /// run here).
  std::vector<std::pair<std::size_t, Sym>> ctors;
  std::vector<TryRegion> trys;
};

/// Exception-type sets, as ids of the Builder's type table.
using TypeSet = std::set<std::size_t>;

/// Builds the whole graph; groups the lookup tables the scan, the fixpoint
/// and the BFS share.  Nodes, helper keys and exception types are dense
/// ids here and turn back into names only in build().
struct Builder {
  const SourceModel& model;
  const SymbolTable& st;
  const std::set<std::string>& runtime_names;

  /// Nodes: "Qualified::Class::method" and "Qualified::Class::(ctor)".
  std::vector<std::string> node_names;
  std::map<std::string, std::size_t> node_ids;
  std::vector<TypeSet> node_prop, node_expl;
  std::vector<std::vector<const FunctionDef*>> node_defs;
  /// Helpers (un-instrumented definitions), one per summary key.
  std::vector<std::vector<const FunctionDef*>> helper_defs;
  std::vector<TypeSet> helper_prop, helper_expl;
  /// Helper id of each summary key id, or npos.
  std::vector<std::size_t> helper_of_key;
  /// Exception types as written, and each one's simple name.
  std::vector<std::string> type_names;
  std::vector<Sym> type_simple;
  std::map<std::string, std::size_t> type_ids;
  std::size_t any_type = 0;

  /// (simple class name << 32 | method) -> instrumented nodes declaring it.
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> inst_by_class;
  /// (class model, method) -> the node of that exact class.
  std::map<std::pair<const ClassModel*, Sym>, std::size_t> inst_of;
  /// method name -> instrumented nodes declaring it (any class).
  std::unordered_map<Sym, std::vector<std::size_t>> inst_by_method;
  /// helper name / (SimpleClass << 32 | name) -> helper ids.
  std::unordered_map<Sym, std::vector<std::size_t>> helper_by_name;
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> helper_by_suffix;
  /// FAT_CTOR_INFO class simple names -> their "(ctor)" nodes.
  std::unordered_map<Sym, std::vector<std::size_t>> ctor_nodes_by_simple;
  std::vector<bool> open;

  std::map<const FunctionDef*, DefFacts> facts;

  explicit Builder(const SourceModel& m, const std::set<std::string>& rt)
      : model(m), st(m.symbols), runtime_names(rt) {}

  static std::uint64_t pair_key(Sym a, Sym b) {
    return std::uint64_t{a} << 32 | b;
  }
  std::size_t type_id(const std::string& name);
  std::size_t add_node(const std::string& name, const ClassModel& cm,
                       const std::string& method);
  void inventory();
  void scan_def(const FunctionDef& def);
  CallEvt resolve_call(const FunctionDef& def, const TokenCursor& v,
                       std::size_t i) const;
  bool contribute(const DefFacts& f, TypeSet& prop, TypeSet& expl);
  void fixpoint();
  StaticCallGraph build();
};

std::size_t Builder::type_id(const std::string& name) {
  const auto [it, fresh] = type_ids.emplace(name, type_names.size());
  if (fresh) {
    type_names.push_back(name);
    type_simple.push_back(st.find(simple_of(name)));
  }
  return it->second;
}

/// A node seeded with its declared and the runtime exception types.
std::size_t Builder::add_node(const std::string& name, const ClassModel& cm,
                              const std::string& method) {
  const auto [it, fresh] = node_ids.emplace(name, node_names.size());
  if (!fresh) return it->second;
  node_names.push_back(name);
  TypeSet seed;
  auto dt = cm.declared_throws.find(method);
  if (dt != cm.declared_throws.end())
    for (const std::string& t : dt->second) seed.insert(type_id(t));
  for (const std::string& t : runtime_names) seed.insert(type_id(t));
  node_prop.push_back(std::move(seed));
  node_expl.emplace_back();  // materialize (possibly empty)
  node_defs.emplace_back();
  return it->second;
}

void Builder::inventory() {
  any_type = type_id(kAny);
  for (const auto& [qn, cm] : model.classes) {
    const Sym simple = st.find(simple_of(qn));
    auto add_method = [&](const std::string& method) {
      const std::size_t before = node_names.size();
      const std::size_t node = add_node(qn + "::" + method, cm, method);
      if (node < before) return;
      const Sym m = st.find(method);
      inst_by_class[pair_key(simple, m)].push_back(node);
      inst_of[{&cm, m}] = node;
      inst_by_method[m].push_back(node);
    };
    for (const std::string& m : cm.instrumented) add_method(m);
    for (const std::string& m : cm.statics) add_method(m);
    if (cm.has_ctor_info)
      ctor_nodes_by_simple[simple].push_back(
          add_node(qn + "::(ctor)", cm, "(ctor)"));
  }

  // Classify every definition: an instrumented node's body, a constructor
  // body, or an un-instrumented helper.
  helper_of_key.assign(model.keys.text.size(), DefKeys::npos);
  for (std::size_t d = 0; d < model.functions.size(); ++d) {
    const FunctionDef& def = model.functions[d];
    const ClassModel* cm =
        def.class_name.empty() ? nullptr : model.find_class(def.class_name);
    if (cm != nullptr &&
        (cm->instrumented.count(def.name) || cm->statics.count(def.name))) {
      node_defs[inst_of.at({cm, def.name_id})].push_back(&def);
      continue;
    }
    if (cm != nullptr && cm->has_ctor_info &&
        def.name == simple_of(def.class_name)) {
      node_defs[node_ids.at(def.class_name + "::(ctor)")].push_back(&def);
      continue;
    }
    const std::size_t key = model.keys.of_def[d];
    std::size_t& helper = helper_of_key[key];
    if (helper == DefKeys::npos) {
      helper = helper_defs.size();
      helper_defs.emplace_back();
      helper_by_name[def.name_id].push_back(helper);
      if (!def.class_name.empty())
        helper_by_suffix[pair_key(st.find(simple_of(def.class_name)),
                                  def.name_id)]
            .push_back(helper);
    }
    helper_defs[helper].push_back(&def);
  }
  helper_prop.resize(helper_defs.size());
  helper_expl.resize(helper_defs.size());

  // Instrumented methods (and ctor frames) with no scanned body are open:
  // nothing is known, every check involving them passes trivially.
  open.resize(node_names.size());
  for (std::size_t n = 0; n < node_names.size(); ++n)
    open[n] = node_defs[n].empty();
}

CallEvt Builder::resolve_call(const FunctionDef& def, const TokenCursor& v,
                              std::size_t i) const {
  CallEvt evt;
  evt.pos = i;
  const Sym name = v.tk(i);

  // The `Qual::...::name` chain leftwards: its first and last qualifiers.
  Sym first = sym::Empty, last = sym::Empty;
  std::size_t j = i;
  while (j >= 2 && v.tk(j - 1) == sym::Scope && v.ident(j - 2)) {
    first = v.tk(j - 2);
    if (last == sym::Empty) last = first;
    j -= 2;
  }
  if (first == sym::Std || first == sym::Fatomic)
    return evt;  // standard library / framework: never a subject target

  auto append = [](std::vector<std::size_t>& to, const auto& table,
                   const auto& key) {
    auto it = table.find(key);
    if (it != table.end())
      to.insert(to.end(), it->second.begin(), it->second.end());
  };
  if (last != sym::Empty) {
    // Qualified call: resolve through the last written qualifier.
    append(evt.inst_nodes, inst_by_class, pair_key(last, name));
    append(evt.helper_keys, helper_by_suffix, pair_key(last, name));
    return evt;
  }

  const bool member_call =
      v.tk(j - 1) == sym::Dot || v.tk(j - 1) == sym::Arrow;
  if (!member_call && !def.class_name.empty()) {
    // Unqualified call inside a member definition: C++ lookup finds a
    // member of the same class first (wrapper lambdas capture `this`, so
    // sibling calls appear receiver-less).
    const ClassModel* cm = model.find_class(def.class_name);
    if (cm != nullptr) {
      auto own = inst_of.find({cm, name});
      if (own != inst_of.end()) {
        evt.inst_nodes.push_back(own->second);
        return evt;
      }
    }
    const std::size_t key = model.keys.find(def.class_id, name);
    if (key != DefKeys::npos && helper_of_key[key] != DefKeys::npos) {
      evt.helper_keys.push_back(helper_of_key[key]);
      return evt;
    }
  }

  // Member call on an unknown receiver, or an unqualified name with no
  // same-class match: any instrumented method or helper of that name may be
  // the target (the deliberate over-approximation graph_check leans on).
  append(evt.inst_nodes, inst_by_method, name);
  append(evt.helper_keys, helper_by_name, name);
  return evt;
}

void Builder::scan_def(const FunctionDef& def) {
  if (facts.count(&def)) return;
  DefFacts& f = facts[&def];
  const TokenCursor v(def.body, st);
  f.trys = try_regions(v);

  for (std::size_t i = 0; i < v.size(); ++i) {
    const Sym t = v.tk(i);
    if (t == sym::Throw) {
      // A rethrow, a thrown variable or an unresolvable type is the
      // wildcard.
      const Sym type = thrown_type(v, i, model);
      if (escapes(f.trys, model, i, type))
        f.throws.emplace_back(
            i, type == sym::Empty ? any_type : type_id(st.text(type)));
      continue;
    }
    if (v.word(i)) {
      if (ctor_nodes_by_simple.count(t)) f.ctors.emplace_back(i, t);
      if (v.tk(i + 1) == sym::LParen && !v.has(i, kMacro | kFrameworkCall)) {
        CallEvt evt = resolve_call(def, v, i);
        if (!evt.inst_nodes.empty() || !evt.helper_keys.empty())
          f.calls.push_back(std::move(evt));
      }
    }
  }
}

bool Builder::contribute(const DefFacts& f, TypeSet& prop, TypeSet& expl) {
  const std::size_t before = prop.size() + expl.size();
  auto escaping = [&](std::size_t pos, std::size_t type) {
    return escapes(f.trys, model, pos, type_simple[type]);
  };
  for (const auto& [pos, type] : f.throws) {
    prop.insert(type);  // already filtered through this def's try blocks
    expl.insert(type);
  }
  for (const CallEvt& c : f.calls) {
    TypeSet in_prop, in_expl;
    for (const std::size_t n : c.inst_nodes) {
      if (open[n]) {
        in_prop.insert(any_type);
        continue;
      }
      in_prop.insert(node_prop[n].begin(), node_prop[n].end());
    }
    for (const std::size_t k : c.helper_keys) {
      in_prop.insert(helper_prop[k].begin(), helper_prop[k].end());
      // Explicit throws flow through helpers only: an undeclared throw
      // inside an instrumented callee is the callee's own lint finding.
      in_expl.insert(helper_expl[k].begin(), helper_expl[k].end());
    }
    // k=1 call-site context: the callee's set is filtered through exactly
    // the try blocks enclosing *this* call, not smeared function-wide.
    for (const std::size_t type : in_prop)
      if (escaping(c.pos, type)) prop.insert(type);
    for (const std::size_t type : in_expl)
      if (escaping(c.pos, type)) expl.insert(type);
  }
  for (const auto& [pos, cls] : f.ctors) {
    for (const std::size_t node : ctor_nodes_by_simple.at(cls)) {
      if (open[node]) {
        if (escaping(pos, any_type)) prop.insert(any_type);
        continue;
      }
      for (const std::size_t type : node_prop[node])
        if (escaping(pos, type)) prop.insert(type);
    }
  }
  return prop.size() + expl.size() != before;
}

void Builder::fixpoint() {
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t h = 0; h < helper_defs.size(); ++h)
      for (const FunctionDef* d : helper_defs[h])
        if (contribute(facts[d], helper_prop[h], helper_expl[h]))
          changed = true;
    for (std::size_t n = 0; n < node_defs.size(); ++n)
      for (const FunctionDef* d : node_defs[n])
        if (contribute(facts[d], node_prop[n], node_expl[n])) changed = true;
  }
}

StaticCallGraph Builder::build() {
  inventory();
  for (const auto& defs : helper_defs)
    for (const FunctionDef* d : defs) scan_def(*d);
  for (const auto& defs : node_defs)
    for (const FunctionDef* d : defs) scan_def(*d);
  fixpoint();

  StaticCallGraph g;
  auto spell = [&](const TypeSet& types) {
    std::set<std::string> out;
    for (const std::size_t t : types) out.insert(type_names[t]);
    return out;
  };
  for (std::size_t n = 0; n < node_names.size(); ++n) {
    g.may_propagate[node_names[n]] = spell(node_prop[n]);
    g.may_raise_explicit[node_names[n]] = spell(node_expl[n]);
    if (open[n]) g.open.insert(node_names[n]);
  }

  // Call edges per node: instrumented methods reachable through helper
  // definitions only.  Constructor bodies run *outside* their own wrapper
  // frame (FAT_CTOR_ENTRY wraps an empty lambda), so anything an invoked
  // constructor calls nests under this node dynamically — constructing a
  // class pulls its ctor bodies into the walk.
  for (std::size_t n = 0; n < node_names.size(); ++n) {
    if (open[n]) continue;
    std::set<std::string>& out = g.calls[node_names[n]];
    std::set<std::string>& ctors_out = g.ctor_classes[node_names[n]];
    const auto& defs = node_defs[n];
    std::vector<const FunctionDef*> work(defs.begin(), defs.end());
    std::set<const FunctionDef*> seen(defs.begin(), defs.end());
    auto enqueue = [&](const std::vector<const FunctionDef*>& more) {
      for (const FunctionDef* d : more)
        if (seen.insert(d).second) work.push_back(d);
    };
    while (!work.empty()) {
      const FunctionDef* d = work.back();
      work.pop_back();
      const DefFacts& f = facts[d];
      for (const CallEvt& c : f.calls) {
        for (const std::size_t callee : c.inst_nodes)
          out.insert(node_names[callee]);
        for (const std::size_t k : c.helper_keys) enqueue(helper_defs[k]);
      }
      for (const auto& [pos, cls] : f.ctors) {
        ctors_out.insert(st.text(cls));
        for (const std::size_t cn : ctor_nodes_by_simple.at(cls))
          enqueue(node_defs[cn]);
      }
    }
  }
  return g;
}

}  // namespace

bool StaticCallGraph::covers(const std::string& node,
                             const std::string& type) const {
  if (open.count(node)) return true;
  auto it = may_propagate.find(node);
  if (it == may_propagate.end()) return false;
  for (const std::string& entry : it->second) {
    if (entry == kAny) return true;
    if (names_match(entry, type)) return true;
  }
  return false;
}

StaticCallGraph build_static_call_graph(
    const SourceModel& model,
    const std::set<std::string>& runtime_exception_names) {
  return Builder(model, runtime_exception_names).build();
}

GraphCheckResult graph_check(const detect::Campaign& campaign,
                             const StaticCallGraph& graph) {
  GraphCheckResult out;
  std::set<std::string> dedup;
  auto violate = [&](const char* kind, const std::string& node,
                     const std::string& detail) {
    if (!dedup.insert(std::string(kind) + '\n' + node + '\n' + detail).second)
      return;
    out.violations.push_back({kind, node, detail});
  };

  // Each distinct caller -> callee pair of the baseline, once.
  std::set<std::pair<const weave::MethodInfo*, const weave::MethodInfo*>>
      edges;
  for (const weave::BaselineCall& call : campaign.calls) {
    // The program top level has no static frame.
    if (call.parent == weave::BaselineCall::kTopLevel) continue;
    const weave::MethodInfo* caller = campaign.calls[call.parent].method;
    const weave::MethodInfo* callee = call.method;
    if (!edges.emplace(caller, callee).second) continue;
    ++out.edges_checked;
    const std::string node = caller->qualified_name();
    if (graph.open.count(node)) continue;
    if (callee->kind() == weave::MethodKind::Constructor) {
      auto it = graph.ctor_classes.find(node);
      const std::string cls = simple_of(callee->class_name());
      if (it == graph.ctor_classes.end() || !it->second.count(cls))
        violate("ctor-edge", node, callee->qualified_name());
      continue;
    }
    auto it = graph.calls.find(node);
    if (it == graph.calls.end() || !it->second.count(callee->qualified_name()))
      violate("call-edge", node, callee->qualified_name());
  }

  std::set<std::pair<std::string, std::string>> seen_types;
  for (const detect::RunRecord& run : campaign.runs) {
    for (const weave::Mark& mark : run.marks) {
      if (mark.exception_type.empty()) continue;
      const std::string node = mark.method->qualified_name();
      if (!seen_types.emplace(node, mark.exception_type).second) continue;
      ++out.types_checked;
      if (!graph.covers(node, mark.exception_type))
        violate("exception-type", node, mark.exception_type);
    }
  }
  std::sort(out.violations.begin(), out.violations.end(),
            [](const GraphViolation& a, const GraphViolation& b) {
              if (a.node != b.node) return a.node < b.node;
              if (a.kind != b.kind) return a.kind < b.kind;
              return a.detail < b.detail;
            });
  return out;
}

std::vector<LintFinding> lint_static(
    const detect::Campaign& campaign, const SourceModel& model,
    const StaticCallGraph& graph,
    const std::set<std::string>& runtime_exception_names) {
  // Scope: classes the campaign touched, methods it never reached.  Covered
  // methods are the dynamic lint's job; classes never observed belong to
  // other subject families linked into the same binary.
  std::set<std::string> observed_methods, observed_classes;
  for (const weave::BaselineCall& call : campaign.calls) {
    observed_methods.insert(call.method->qualified_name());
    observed_classes.insert(call.method->class_name());
  }

  std::vector<LintFinding> findings;
  for (const auto& [qn, cm] : model.classes) {
    if (!observed_classes.count(qn)) continue;
    std::set<std::string> methods = cm.instrumented;
    methods.insert(cm.statics.begin(), cm.statics.end());
    for (const std::string& m : methods) {
      const std::string node = qn + "::" + m;
      if (observed_methods.count(node)) continue;
      if (graph.open.count(node)) continue;
      auto raised = graph.may_raise_explicit.find(node);
      if (raised == graph.may_raise_explicit.end()) continue;

      // Declaration-based allowance: the method's own FAT_THROWS, the
      // runtime set, and the declared sets of statically reachable
      // instrumented callees (their escaping exceptions legitimately pass
      // through this frame).
      std::set<std::string> allowed(runtime_exception_names);
      auto own = cm.declared_throws.find(m);
      if (own != cm.declared_throws.end())
        allowed.insert(own->second.begin(), own->second.end());
      auto callees = graph.calls.find(node);
      if (callees != graph.calls.end()) {
        for (const std::string& callee : callees->second) {
          const std::size_t sep = callee.rfind("::");
          if (sep == std::string::npos) continue;
          const ClassModel* ccm = model.find_class(callee.substr(0, sep));
          if (ccm == nullptr) continue;
          auto dt = ccm->declared_throws.find(callee.substr(sep + 2));
          if (dt != ccm->declared_throws.end())
            allowed.insert(dt->second.begin(), dt->second.end());
        }
      }

      for (const std::string& type : raised->second) {
        if (type == kAny) continue;  // unnameable: nothing to declare
        bool ok = false;
        for (const std::string& a : allowed)
          if (names_match(a, type)) {
            ok = true;
            break;
          }
        if (ok) continue;
        LintFinding f;
        f.method = node;
        f.exception_type = type;
        f.injected_at = "(static)";
        f.injection_point = 0;
        findings.push_back(std::move(f));
      }
    }
  }
  std::sort(findings.begin(), findings.end(),
            [](const LintFinding& a, const LintFinding& b) {
              return a.method != b.method ? a.method < b.method
                                          : a.exception_type < b.exception_type;
            });
  return findings;
}

}  // namespace fatomic::analyze
