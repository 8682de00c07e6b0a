#include "fatomic/analyze/callgraph_static.hpp"

#include <algorithm>

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
/// instrumented nodes / helper definitions it may reach.
struct CallEvt {
  std::size_t pos = 0;
  std::set<std::string> inst_nodes;
  std::set<std::string> helper_keys;
};

/// The per-definition facts the fixpoint and the edge BFS consume.
struct DefFacts {
  /// Explicit throws that escape this definition's own try blocks, as
  /// (position, type-or-kAny).
  std::vector<std::pair<std::size_t, std::string>> throws;
  std::vector<CallEvt> calls;
  /// Mentions of FAT_CTOR_INFO class simple names (their constructors may
  /// run here).
  std::vector<std::pair<std::size_t, std::string>> ctors;
  std::vector<TryRegion> trys;
};

/// Builds the whole graph; groups the lookup tables the scan, the fixpoint
/// and the BFS share.
struct Builder {
  const SourceModel& model;
  const std::set<std::string>& runtime_names;
  StaticCallGraph g;

  /// simple class name -> qualified instrumented classes carrying it.
  std::map<std::string, std::set<std::string>> simple_to_quals;
  /// method name -> instrumented nodes declaring it (any class).
  std::map<std::string, std::set<std::string>> inst_by_method;
  /// helper name / "SimpleClass::name" -> helper keys.
  std::map<std::string, std::set<std::string>> helper_by_name;
  std::map<std::string, std::set<std::string>> helper_by_suffix;
  std::map<std::string, std::vector<const FunctionDef*>> helper_defs;
  std::map<std::string, std::vector<const FunctionDef*>> node_defs;
  /// Simple names of FAT_CTOR_INFO classes and their "(ctor)" nodes.
  std::set<std::string> ctor_simples;
  std::map<std::string, std::set<std::string>> ctor_nodes_by_simple;

  std::map<const FunctionDef*, DefFacts> facts;
  std::map<std::string, std::set<std::string>> helper_prop, helper_expl;

  explicit Builder(const SourceModel& m, const std::set<std::string>& rt)
      : model(m), runtime_names(rt) {}

  void inventory();
  void scan_def(const FunctionDef& def);
  CallEvt resolve_call(const FunctionDef& def, const TokenCursor& v,
                       std::size_t i) const;
  bool contribute(const DefFacts& f, std::set<std::string>& prop,
                  std::set<std::string>& expl);
  void fixpoint();
  void edges();

  StaticCallGraph build() {
    inventory();
    for (const auto& [key, defs] : helper_defs)
      for (const FunctionDef* d : defs) scan_def(*d);
    for (const auto& [node, defs] : node_defs)
      for (const FunctionDef* d : defs) scan_def(*d);
    fixpoint();
    edges();
    return std::move(g);
  }
};

void Builder::inventory() {
  for (const auto& [qn, cm] : model.classes) {
    simple_to_quals[simple_of(qn)].insert(qn);
    auto add_node = [&](const std::string& method) {
      const std::string node = qn + "::" + method;
      inst_by_method[method].insert(node);
      std::set<std::string>& seed = g.may_propagate[node];
      auto it = cm.declared_throws.find(method);
      if (it != cm.declared_throws.end())
        seed.insert(it->second.begin(), it->second.end());
      seed.insert(runtime_names.begin(), runtime_names.end());
      g.may_raise_explicit[node];  // materialize (possibly empty)
    };
    for (const std::string& m : cm.instrumented) add_node(m);
    for (const std::string& m : cm.statics) add_node(m);
    if (cm.has_ctor_info) {
      const std::string simple = simple_of(qn);
      ctor_simples.insert(simple);
      ctor_nodes_by_simple[simple].insert(qn + "::(ctor)");
      std::set<std::string>& seed = g.may_propagate[qn + "::(ctor)"];
      auto it = cm.declared_throws.find("(ctor)");
      if (it != cm.declared_throws.end())
        seed.insert(it->second.begin(), it->second.end());
      seed.insert(runtime_names.begin(), runtime_names.end());
      g.may_raise_explicit[qn + "::(ctor)"];
    }
  }

  // Classify every definition: an instrumented node's body, a constructor
  // body, or an un-instrumented helper.
  for (const FunctionDef& def : model.functions) {
    const ClassModel* cm =
        def.class_name.empty() ? nullptr : model.find_class(def.class_name);
    if (cm != nullptr &&
        (cm->instrumented.count(def.name) || cm->statics.count(def.name))) {
      node_defs[def.class_name + "::" + def.name].push_back(&def);
      continue;
    }
    if (cm != nullptr && cm->has_ctor_info &&
        def.name == simple_of(def.class_name)) {
      node_defs[def.class_name + "::(ctor)"].push_back(&def);
      continue;
    }
    const std::string key =
        def.class_name.empty() ? def.name : def.class_name + "::" + def.name;
    helper_defs[key].push_back(&def);
    helper_by_name[def.name].insert(key);
    if (!def.class_name.empty())
      helper_by_suffix[simple_of(def.class_name) + "::" + def.name].insert(
          key);
  }

  // Instrumented methods (and ctor frames) with no scanned body are open:
  // nothing is known, every check involving them passes trivially.
  for (const auto& [node, seed] : g.may_propagate)
    if (!node_defs.count(node)) g.open.insert(node);
}

CallEvt Builder::resolve_call(const FunctionDef& def, const TokenCursor& v,
                              std::size_t i) const {
  CallEvt evt;
  evt.pos = i;
  const std::string& name = v.tk(i);

  // Reconstruct a `Qual::...::name` chain leftwards.
  std::vector<std::string> quals;
  std::size_t j = i;
  while (j >= 2 && v.tk(j - 1) == "::" && is_ident(v.tk(j - 2))) {
    quals.insert(quals.begin(), v.tk(j - 2));
    j -= 2;
  }
  if (!quals.empty() && (quals.front() == "std" || quals.front() == "fatomic"))
    return evt;  // standard library / framework: never a subject target

  if (!quals.empty()) {
    // Qualified call: resolve through the last written qualifier.
    const std::string& cls = quals.back();
    auto sq = simple_to_quals.find(cls);
    if (sq != simple_to_quals.end())
      for (const std::string& qn : sq->second) {
        const ClassModel& cm = model.classes.at(qn);
        if (cm.instrumented.count(name) || cm.statics.count(name))
          evt.inst_nodes.insert(qn + "::" + name);
      }
    auto hk = helper_by_suffix.find(cls + "::" + name);
    if (hk != helper_by_suffix.end())
      evt.helper_keys.insert(hk->second.begin(), hk->second.end());
    return evt;
  }

  const bool member_call = v.tk(j - 1) == "." || v.tk(j - 1) == "->";
  if (!member_call && !def.class_name.empty()) {
    // Unqualified call inside a member definition: C++ lookup finds a
    // member of the same class first (wrapper lambdas capture `this`, so
    // sibling calls appear receiver-less).
    const ClassModel* cm = model.find_class(def.class_name);
    if (cm != nullptr &&
        (cm->instrumented.count(name) || cm->statics.count(name))) {
      evt.inst_nodes.insert(def.class_name + "::" + name);
      return evt;
    }
    auto hk = helper_defs.find(def.class_name + "::" + name);
    if (hk != helper_defs.end()) {
      evt.helper_keys.insert(hk->first);
      return evt;
    }
  }

  // Member call on an unknown receiver, or an unqualified name with no
  // same-class match: any instrumented method or helper of that name may be
  // the target (the deliberate over-approximation graph_check leans on).
  auto in = inst_by_method.find(name);
  if (in != inst_by_method.end())
    evt.inst_nodes.insert(in->second.begin(), in->second.end());
  auto hn = helper_by_name.find(name);
  if (hn != helper_by_name.end())
    evt.helper_keys.insert(hn->second.begin(), hn->second.end());
  return evt;
}

void Builder::scan_def(const FunctionDef& def) {
  if (facts.count(&def)) return;
  DefFacts& f = facts[&def];
  const TokenCursor v(def.body);
  f.trys = try_regions(v);

  for (std::size_t i = 0; i < v.size(); ++i) {
    const std::string& t = v.tk(i);
    if (t == "throw") {
      // A rethrow, a thrown variable or an unresolvable type is the
      // wildcard.
      std::string type = thrown_type(v, i, model);
      if (type.empty()) type = kAny;
      if (escapes(f.trys, model, i, type)) f.throws.emplace_back(i, type);
      continue;
    }
    if (is_ident(t) && !keywords().count(t) && !is_number(t)) {
      if (ctor_simples.count(t)) f.ctors.emplace_back(i, t);
      if (v.tk(i + 1) == "(" && t.rfind("FAT_", 0) != 0 &&
          t.rfind("fat_", 0) != 0) {
        CallEvt evt = resolve_call(def, v, i);
        if (!evt.inst_nodes.empty() || !evt.helper_keys.empty())
          f.calls.push_back(std::move(evt));
      }
    }
  }
}

bool Builder::contribute(const DefFacts& f, std::set<std::string>& prop,
                         std::set<std::string>& expl) {
  const std::size_t before = prop.size() + expl.size();
  for (const auto& [pos, type] : f.throws) {
    prop.insert(type);  // already filtered through this def's try blocks
    expl.insert(type);
  }
  for (const CallEvt& c : f.calls) {
    std::set<std::string> in_prop, in_expl;
    for (const std::string& n : c.inst_nodes) {
      if (g.open.count(n)) {
        in_prop.insert(kAny);
        continue;
      }
      auto it = g.may_propagate.find(n);
      if (it != g.may_propagate.end())
        in_prop.insert(it->second.begin(), it->second.end());
    }
    for (const std::string& k : c.helper_keys) {
      const auto& hp = helper_prop[k];
      in_prop.insert(hp.begin(), hp.end());
      // Explicit throws flow through helpers only: an undeclared throw
      // inside an instrumented callee is the callee's own lint finding.
      const auto& he = helper_expl[k];
      in_expl.insert(he.begin(), he.end());
    }
    // k=1 call-site context: the callee's set is filtered through exactly
    // the try blocks enclosing *this* call, not smeared function-wide.
    for (const std::string& type : in_prop)
      if (escapes(f.trys, model, c.pos, type)) prop.insert(type);
    for (const std::string& type : in_expl)
      if (escapes(f.trys, model, c.pos, type)) expl.insert(type);
  }
  for (const auto& [pos, cls] : f.ctors) {
    auto it = ctor_nodes_by_simple.find(cls);
    if (it == ctor_nodes_by_simple.end()) continue;
    for (const std::string& node : it->second) {
      if (g.open.count(node)) {
        if (escapes(f.trys, model, pos, kAny)) prop.insert(kAny);
        continue;
      }
      for (const std::string& type : g.may_propagate[node])
        if (escapes(f.trys, model, pos, type)) prop.insert(type);
    }
  }
  return prop.size() + expl.size() != before;
}

void Builder::fixpoint() {
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& [key, defs] : helper_defs)
      for (const FunctionDef* d : defs)
        if (contribute(facts[d], helper_prop[key], helper_expl[key]))
          changed = true;
    for (const auto& [node, defs] : node_defs)
      for (const FunctionDef* d : defs)
        if (contribute(facts[d], g.may_propagate[node],
                       g.may_raise_explicit[node]))
          changed = true;
  }
}

void Builder::edges() {
  // Call edges per node: instrumented methods reachable through helper
  // definitions only.  Constructor bodies run *outside* their own wrapper
  // frame (FAT_CTOR_ENTRY wraps an empty lambda), so anything an invoked
  // constructor calls nests under this node dynamically — constructing a
  // class pulls its ctor bodies into the walk.
  for (const auto& [node, defs] : node_defs) {
    std::set<std::string>& out = g.calls[node];
    std::set<std::string>& ctors_out = g.ctor_classes[node];
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
        out.insert(c.inst_nodes.begin(), c.inst_nodes.end());
        for (const std::string& k : c.helper_keys) {
          auto hd = helper_defs.find(k);
          if (hd != helper_defs.end()) enqueue(hd->second);
        }
      }
      for (const auto& [pos, cls] : f.ctors) {
        ctors_out.insert(cls);
        auto it = ctor_nodes_by_simple.find(cls);
        if (it == ctor_nodes_by_simple.end()) continue;
        for (const std::string& cn : it->second) {
          auto nd = node_defs.find(cn);
          if (nd != node_defs.end()) enqueue(nd->second);
        }
      }
    }
  }
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

  for (const auto& [edge, count] : campaign.call_edges) {
    const weave::MethodInfo* caller = edge.first;
    const weave::MethodInfo* callee = edge.second;
    if (caller == nullptr) continue;  // program top level: no static frame
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
  auto observe = [&](const weave::MethodInfo* mi) {
    if (mi == nullptr) return;
    observed_methods.insert(mi->qualified_name());
    observed_classes.insert(mi->class_name());
  };
  for (const auto& [edge, count] : campaign.call_edges) {
    observe(edge.first);
    observe(edge.second);
  }
  for (const auto& [mi, count] : campaign.call_counts) observe(mi);

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
