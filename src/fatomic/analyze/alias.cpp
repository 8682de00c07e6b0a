#include "fatomic/analyze/alias.hpp"

#include <cctype>

#include "fatomic/analyze/tokens.hpp"

namespace fatomic::analyze {

void AliasTarget::merge(const AliasTarget& o) {
  if (o.kind == Kind::Local) return;
  if (kind == Kind::Local) {
    *this = o;
    return;
  }
  if (kind == Kind::Top || o.kind == Kind::Top || kind != o.kind) {
    *this = top();
    return;
  }
  // Same middle kind.  Empty roots mean "unknown member" and subsume any
  // named set; same for unknown parameter positions.
  if (roots.empty() || o.roots.empty())
    roots.clear();
  else
    roots.insert(o.roots.begin(), o.roots.end());
  if (kind == Kind::Param) {
    if (positions.empty() || o.positions.empty())
      positions.clear();
    else
      positions.insert(o.positions.begin(), o.positions.end());
  }
}

namespace {

/// Member calls that return (a handle into) their receiver's own storage:
/// the chain continues through them unchanged.  `buckets_[i].get()` aliases
/// the same subtree as `buckets_[i]`.
const std::set<std::string>& identity_accessors() {
  static const std::set<std::string> a = {
      "get", "at", "front", "back", "data", "str", "c_str", "begin", "end",
  };
  return a;
}

/// Parses one full function definition (not the extracted invoke lambda —
/// the FAT_INVOKE_ARGS tie list lives outside it) against the analysis
/// state of the current fixpoint round.
class FnParse : private TokenCursor {
 public:
  FnParse(const SourceModel& model, const AliasAnalysis& analysis,
          const std::set<std::string>& scanned_names, const FunctionDef& def)
      : TokenCursor(def.body),
        model_(model),
        analysis_(analysis),
        scanned_names_(scanned_names),
        def_(def) {
    for (std::size_t i = 0; i < def.params.size(); ++i)
      if (!def.params[i].name.empty()) param_pos_[def.params[i].name] = i;
  }

  FnAliasInfo run();

 private:
  const FnAliasInfo* lookup(const std::string& key) const {
    return analysis_.find(key);
  }

  AliasTarget resolve(std::size_t b, std::size_t e, int depth = 0);
  AliasTarget resolve_call(const std::string& name, std::size_t open,
                           std::size_t close, int depth);
  bool try_decl(std::size_t i, std::size_t& next);
  void bind(const std::string& name, const AliasTarget& t) {
    info_.locals[name].merge(t);
  }
  void scan_invoke_args(std::size_t i);
  void scan_this(std::size_t i);
  void scan_call_escapes(std::size_t i, std::size_t open, std::size_t close);

  const SourceModel& model_;
  const AliasAnalysis& analysis_;
  const std::set<std::string>& scanned_names_;
  const FunctionDef& def_;
  std::map<std::string, std::size_t> param_pos_;
  FnAliasInfo info_;
  /// Locals stored into unmodelled sinks this pass; widened to ⊤ after the
  /// scan (binding statements may follow the escape in token order only
  /// inside loops, and the post-scan widening covers that too).
  std::set<std::string> escaped_;
  /// Holds a merged-by-simple-name callee summary while resolve_call uses it.
  FnAliasInfo info_merge_scratch_;
};

/// Resolves the expression [b, e) to an alias target in this frame.
AliasTarget FnParse::resolve(std::size_t b, std::size_t e, int depth) {
  if (depth > 8) return AliasTarget::top();
  if (b >= e) return AliasTarget::local();

  // Widening pre-checks over the whole expression: laundering casts kill
  // the binding outright; fresh allocations keep it frame-local.
  int nest = 0;
  bool arith = false;
  for (std::size_t k = b; k < e; ++k) {
    const std::string& t = tk(k);
    if (t == "const_cast" || t == "reinterpret_cast")
      return AliasTarget::top();
    if (t == "new" || t == "make_unique" || t == "make_shared")
      return AliasTarget::local();
    if (t == "(" || t == "[" || t == "{") ++nest;
    else if (t == ")" || t == "]" || t == "}") --nest;
    else if (nest == 0 && (t == "+" || t == "-" || t == "?")) arith = true;
  }

  // Leading address-of / dereference / parens / related-type casts are
  // transparent: they change the handle's shape, not what it reaches.
  std::size_t k = b;
  while (k < e) {
    const std::string& t = tk(k);
    if (t == "&" || t == "*" || t == "(") {
      ++k;
      continue;
    }
    if (t == "static_cast" || t == "dynamic_cast") {
      ++k;
      if (tk(k) == "<") {
        int d = 0;
        for (; k < e; ++k) {
          if (tk(k) == "<") ++d;
          else if (tk(k) == ">" && --d == 0) {
            ++k;
            break;
          } else if (tk(k) == ">>") {
            d -= 2;
            if (d <= 0) {
              ++k;
              break;
            }
          }
        }
      }
      continue;
    }
    break;
  }
  if (k >= e) return AliasTarget::local();

  bool base_this = false;
  std::string base;
  AliasTarget base_target = AliasTarget::local();
  bool have_base_target = false;

  if (tk(k) == "this") {
    base_this = true;
    ++k;
  } else if (is_ident(tk(k)) && !is_number(tk(k)) &&
             !keywords().count(tk(k))) {
    // Possibly qualified head: `ns::f(...)`, `std::move(...)`, `obj`.
    std::string leading = tk(k);
    std::string last = tk(k);
    ++k;
    while (tk(k) == "::" && k + 1 < e && is_ident(tk(k + 1))) {
      last = tk(k + 1);
      k += 2;
    }
    if (k < e && tk(k) == "(") {
      const std::size_t close = match_fwd(k, "(", ")");
      if (leading == "std" && leading != last) {
        if (last == "move" || last == "forward")
          return resolve(k + 1, std::min(close, e), depth + 1);
        return AliasTarget::top();  // unknown std result (std::ref, ...)
      }
      base_target = resolve_call(last, k, std::min(close, e), depth);
      have_base_target = true;
      k = std::min(close, e) + 1;
    } else {
      base = last;
    }
  } else {
    return AliasTarget::local();  // literal / placeholder
  }

  // Member chain: collect names, stay transparent through indexing and the
  // identity accessors, widen on any other call.
  std::vector<std::string> members;
  while (k < e) {
    const std::string& t = tk(k);
    if (t == "." || t == "->") {
      if (k + 1 >= e || !is_ident(tk(k + 1))) break;
      const std::string& m = tk(k + 1);
      if (k + 2 < e && tk(k + 2) == "(") {
        if (!identity_accessors().count(m)) return AliasTarget::top();
        k = std::min(match_fwd(k + 2, "(", ")"), e) + 1;  // transparent
        continue;
      }
      members.push_back(m);
      k += 2;
      continue;
    }
    if (t == "[") {
      k = std::min(match_fwd(k, "[", "]"), e) + 1;  // element-of: same subtree
      continue;
    }
    break;
  }

  if (arith) {
    // `p + n` / `&a - &b` / conditional expressions: address arithmetic or
    // a selection the flow-insensitive chain cannot follow.
    if (base_this || have_base_target || !base.empty())
      return AliasTarget::top();
    return AliasTarget::local();
  }

  const std::string last_member = members.empty() ? "" : members.back();

  if (base_this) {
    if (last_member.empty()) return AliasTarget::field({});
    return AliasTarget::field({last_member});
  }
  if (have_base_target) {
    AliasTarget t = base_target;
    if (!last_member.empty() &&
        (t.kind == AliasTarget::Kind::Field ||
         t.kind == AliasTarget::Kind::Param)) {
      t.roots = {last_member};  // innermost member wins
    }
    return t;
  }
  if (auto it = info_.locals.find(base); it != info_.locals.end()) {
    AliasTarget t = it->second;
    if (!last_member.empty() &&
        (t.kind == AliasTarget::Kind::Field ||
         t.kind == AliasTarget::Kind::Param))
      t.roots = {last_member};
    return t;
  }
  if (auto it = param_pos_.find(base); it != param_pos_.end()) {
    std::set<std::string> roots;
    if (!last_member.empty()) roots.insert(last_member);
    return AliasTarget::param({it->second}, std::move(roots));
  }
  // Unknown base identifier: a member of the enclosing class or a scanned
  // global — receiver-subtree either way, rooted at the innermost name.
  return AliasTarget::field({last_member.empty() ? base : last_member});
}

/// Resolves the value a call to `name` aliases, mapping the callee's
/// return summary into this frame through the k=1 call-site context.
AliasTarget FnParse::resolve_call(const std::string& name, std::size_t open,
                                  std::size_t close, int depth) {
  if (model_.class_names.count(name)) return AliasTarget::local();  // ctor
  const FnAliasInfo* callee = nullptr;
  if (!def_.class_name.empty()) callee = lookup(def_.class_name + "::" + name);
  if (callee == nullptr) callee = lookup(name);
  if (callee == nullptr) {
    // Merge over every scanned definition sharing the simple name; the
    // union covers the actual callee when it was scanned at all.
    FnAliasInfo merged;
    bool any = false;
    for (const auto& [key, fi] : analysis_.by_key) {
      if (simple_of(key) != name) continue;
      any = true;
      merged.returns.merge(fi.returns);
      merged.has_return |= fi.has_return;
    }
    if (!any) return AliasTarget::top();
    info_merge_scratch_ = merged;
    callee = &info_merge_scratch_;
  }
  if (!callee->has_return) {
    // A scanned body with no resolvable `return <chain>;` — void, or every
    // return was already folded.  Using the bottom here would under-
    // approximate only if a real return chain was missed, and the parser
    // merges ⊤ for those; bottom is therefore the frame-local "no alias".
    return callee->returns;
  }
  const AliasTarget& r = callee->returns;
  if (r.kind != AliasTarget::Kind::Param) return r;
  // Param return: re-resolve the argument expressions at the returned
  // positions in this frame, keeping the callee's (innermost) roots.
  if (r.positions.empty()) return AliasTarget::top();
  const auto args = split_args(open, close);
  AliasTarget out = AliasTarget::local();
  for (std::size_t p : r.positions) {
    if (p >= args.size()) return AliasTarget::top();
    AliasTarget at = resolve(args[p].first, args[p].second, depth + 1);
    if (!r.roots.empty() && (at.kind == AliasTarget::Kind::Field ||
                             at.kind == AliasTarget::Kind::Param))
      at.roots = r.roots;
    out.merge(at);
  }
  return out;
}

/// Local / reference / structured-binding declaration at statement start;
/// binds the introduced names and leaves `next` inside the initializer so
/// the linear scan still sees its calls.
bool FnParse::try_decl(std::size_t i, std::size_t& next) {
  const std::optional<DeclHead> d = parse_decl_head(*this, i);
  if (!d) return false;
  const bool indirect = d->is_ptr || d->is_ref;
  const std::size_t e = d->end;
  const std::string& after = tk(e);
  if (d->structured) {
    const AliasTarget t =
        indirect ? resolve(e + 1, stmt_end(e + 1, /*initializer=*/true))
                 : AliasTarget::local();
    for (const std::string& n : d->names) bind(n, t);
    next = e + 1;
    return true;
  }
  const std::string& name = d->names.front();
  if (!indirect && !d->is_auto) {
    bind(name, AliasTarget::local());  // by-value copy: writes stay local
    next = after == "=" ? e + 1 : e;
    return true;
  }
  if (after == "=" || after == ":") {
    bind(name, resolve(e + 1, stmt_end(e + 1, /*initializer=*/true)));
    next = e + 1;
  } else if (after == "(" || after == "{") {
    const std::size_t close =
        match_fwd(e, after.c_str(), after == "(" ? ")" : "}");
    bind(name, resolve(e + 1, close));
    next = e + 1;
  } else {
    bind(name, AliasTarget::local());  // no initializer
    next = e;
  }
  return true;
}

/// FAT_INVOKE_ARGS(name, std::tie(a, b), lambda): the tied parameters ride
/// in the checkpoint root tuple — record their positions.
void FnParse::scan_invoke_args(std::size_t i) {
  const std::size_t open = i + 1;
  if (tk(open) != "(") return;
  const std::size_t close = match_fwd(open, "(", ")");
  const auto args = split_args(open, close);
  if (args.size() < 2) return;
  const auto [b, e] = args[1];
  for (std::size_t k = b; k < e; ++k) {
    if (tk(k) != "tie" || tk(k + 1) != "(") continue;
    const std::size_t tclose = match_fwd(k + 1, "(", ")");
    for (std::size_t m = k + 2; m < tclose && m < e; ++m) {
      auto it = param_pos_.find(tk(m));
      if (it != param_pos_.end()) info_.tied_positions.insert(it->second);
    }
    break;
  }
}

/// Classifies one `this` token: member access, identity uses and lambda
/// captures are fine; passing it as a call argument records the sink for
/// the effect pass's purity check; anything else escapes the receiver.
void FnParse::scan_this(std::size_t i) {
  const std::string& next = tk(i + 1);
  const std::string prev = i > 0 ? tk(i - 1) : "";
  if (next == "->") return;  // member access
  if (prev == "[" && next == "]") return;            // [this] capture
  if ((prev == "[" || prev == ",") && (next == "]" || next == ","))
    return;                                          // capture list entry
  if (next == "==" || next == "!=" || prev == "==" || prev == "!=")
    return;                                          // identity comparison
  if (prev == "return" || (prev == "*" && i >= 2 && tk(i - 2) == "return"))
    return;  // returned alias: used after the frame's own window closes
  if (prev == "*") {
    // `(*this).member` — dereference feeding a member access.
    if (next == ")" && (tk(i + 2) == "." || tk(i + 2) == "->")) return;
    info_.this_top = true;
    return;
  }
  if (prev == "(" || prev == ",") {
    // Argument position: walk back to the call's identifier.
    int depth = 0;
    for (std::ptrdiff_t k = static_cast<std::ptrdiff_t>(i) - 1; k >= 0; --k) {
      const std::string& t = tk(static_cast<std::size_t>(k));
      if (t == ")" || t == "]" || t == "}") ++depth;
      else if (t == "(" || t == "[" || t == "{") {
        if (depth == 0) {
          if (k > 0 && is_ident(tk(static_cast<std::size_t>(k) - 1)) &&
              !keywords().count(tk(static_cast<std::size_t>(k) - 1))) {
            info_.this_sinks.insert(tk(static_cast<std::size_t>(k) - 1));
            return;
          }
          break;
        }
        --depth;
      }
    }
  }
  info_.this_top = true;
}

/// Storage into an unmodelled sink: any bound local handed to a call the
/// analysis has no summary for is widened to ⊤ after the scan.  Scanned
/// functions, std:: calls, the identity accessors and constructors of
/// scanned classes are modelled (the effect pass folds their writes), so
/// they do not count as escapes — the widening is belt-and-braces on top of
/// the name-resolution claims, which hold under escape regardless.
void FnParse::scan_call_escapes(std::size_t i, std::size_t open,
                                std::size_t close) {
  const std::string& name = tk(i);
  if (name.rfind("FAT_", 0) == 0) return;
  if (leading_qualifier(i) == "std") return;
  if (identity_accessors().count(name)) return;
  if (scanned_names_.count(name)) return;
  if (model_.class_names.count(name)) return;
  for (std::size_t k = open + 1; k < close; ++k) {
    const std::string& t = tk(k);
    if (is_ident(t) && info_.locals.count(t)) escaped_.insert(t);
  }
}

FnAliasInfo FnParse::run() {
  bool stmt_start = true;
  std::size_t i = 0;
  while (i < size()) {
    const std::string& t = tk(i);
    if (t == ";" || t == "{" || t == "}" || t == "(") {
      stmt_start = true;
      ++i;
      continue;
    }
    if (t == "this") {
      scan_this(i);
      stmt_start = false;
      ++i;
      continue;
    }
    if (t == "return") {
      const std::size_t e = stmt_end(i);
      if (i + 1 < e) {
        AliasTarget r = resolve(i + 1, e);
        // An unresolvable return chain must poison the summary, not bottom
        // out: callers would otherwise treat the result as frame-local.
        info_.returns.merge(r);
        info_.has_return = true;
      }
      stmt_start = false;
      ++i;  // keep scanning inside the return expression (calls, this)
      continue;
    }
    if (stmt_start && is_ident(t) && !is_number(t)) {
      std::size_t next = i;
      if (try_decl(i, next)) {
        stmt_start = false;
        i = next;
        continue;
      }
    }
    if (is_ident(t) && !keywords().count(t) && !is_number(t)) {
      if (t.rfind("FAT_", 0) == 0 &&
          t.find("INVOKE_ARGS") != std::string::npos)
        scan_invoke_args(i);
      if (tk(i + 1) == "(") {
        const std::size_t close = match_fwd(i + 1, "(", ")");
        scan_call_escapes(i, i + 1, close);
      }
      // Reassignment of a bound local: flow-insensitive union with the new
      // value (`x = x->next` inside loops converges through the fixpoint).
      if (stmt_start && tk(i + 1) == "=" && info_.locals.count(t))
        bind(t, resolve(i + 2, stmt_end(i + 2, /*initializer=*/true)));
      stmt_start = false;
      ++i;
      continue;
    }
    stmt_start = false;
    ++i;
  }
  for (const std::string& n : escaped_) info_.locals[n] = AliasTarget::top();
  return std::move(info_);
}

}  // namespace

AliasAnalysis analyze_aliases(const SourceModel& model) {
  AliasAnalysis out;
  std::set<std::string> scanned_names;
  for (const FunctionDef& def : model.functions) scanned_names.insert(def.name);

  // Optimistic fixpoint over the return-alias summaries: targets start at
  // the bottom (Local) and merges only move up the lattice, so iteration
  // converges; the cap is a backstop far above any real call-DAG depth.
  for (int round = 0; round < 10; ++round) {
    bool changed = false;
    for (const FunctionDef& def : model.functions) {
      const std::string key = def.class_name.empty()
                                  ? def.name
                                  : def.class_name + "::" + def.name;
      FnAliasInfo fresh = FnParse(model, out, scanned_names, def).run();
      FnAliasInfo& cur = out.by_key[key];
      FnAliasInfo merged = cur;
      for (const auto& [n, t] : fresh.locals) merged.locals[n].merge(t);
      merged.tied_positions.insert(fresh.tied_positions.begin(),
                                   fresh.tied_positions.end());
      merged.this_top |= fresh.this_top;
      merged.this_sinks.insert(fresh.this_sinks.begin(),
                               fresh.this_sinks.end());
      merged.returns.merge(fresh.returns);
      merged.has_return |= fresh.has_return;
      if (merged != cur) {
        cur = std::move(merged);
        changed = true;
      }
    }
    if (!changed) break;
  }
  return out;
}

namespace {

/// Identifier segments of a diff path, in root-to-leaf order.  The grammar
/// (snapshot/diff.cpp) separates object children with '.', pointees with
/// "->" and sequence elements with "[i]"; "root", bare element numbers and
/// index digits carry no member name and are skipped.
std::vector<std::string> path_segments(const std::string& path) {
  std::vector<std::string> segs;
  std::string cur;
  auto flush = [&] {
    if (!cur.empty() && cur != "root" && !is_number(cur))
      segs.push_back(cur);
    cur.clear();
  };
  for (char c : path) {
    if (std::isalnum(static_cast<unsigned char>(c)) || c == '_')
      cur.push_back(c);
    else
      flush();
  }
  flush();
  return segs;
}

}  // namespace

AliasCheckResult alias_check(const detect::Campaign& campaign,
                             const WriteSetAnalysis& write_sets) {
  AliasCheckResult res;
  std::set<std::pair<std::string, std::string>> seen;
  for (const auto& run : campaign.runs) {
    for (const auto& mark : run.marks) {
      if (mark.atomic) continue;
      const MethodWriteSet* w =
          write_sets.find(mark.method->qualified_name());
      if (w == nullptr || !w->plan.partial) continue;
      ++res.marks_checked;
      for (const std::string& path : mark.footprint) {
        ++res.paths_checked;
        bool covered = false;
        std::string reason;
        for (const std::string& seg : path_segments(path)) {
          if (w->plan.prune.count(seg)) {
            reason = "write under pruned subtree";
            break;
          }
          if (w->plan.capture.count(seg)) {
            covered = true;
            break;
          }
        }
        if (covered) continue;
        if (reason.empty()) reason = "path outside capture set";
        if (!seen.insert({w->qualified_name, path}).second) continue;
        res.violations.push_back({w->qualified_name, path, reason});
      }
    }
  }
  return res;
}

}  // namespace fatomic::analyze
