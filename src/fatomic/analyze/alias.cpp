#include "fatomic/analyze/alias.hpp"

#include <cctype>

#include "fatomic/analyze/tokens.hpp"

namespace fatomic::analyze {

namespace {

using Target = BasicAliasTarget<Sym>;
using Info = BasicFnAliasInfo<Sym>;

/// The fixpoint's state: one summary per definition key id, and whether the
/// current round has reached that key yet (a key no definition has been
/// parsed for does not resolve).
struct Round {
  std::vector<Info> infos;
  std::vector<bool> present;
};

/// Parses one full function definition (not the extracted invoke lambda —
/// the FAT_INVOKE_ARGS tie list lives outside it) against the analysis
/// state of the current fixpoint round.
class FnParse : private TokenCursor {
 public:
  FnParse(const SourceModel& model, const Round& round, const FunctionDef& def)
      : TokenCursor(def.body, model.symbols),
        model_(model),
        round_(round),
        def_(def) {
    for (std::size_t i = 0; i < def.params.size(); ++i)
      if (!def.params[i].name.empty())
        param_pos_[model.symbols.find(def.params[i].name)] = i;
  }

  Info run();

 private:
  const Info* lookup(Sym cls, Sym name) const {
    const std::size_t k = model_.keys.find(cls, name);
    return k != DefKeys::npos && round_.present[k] ? &round_.infos[k]
                                                   : nullptr;
  }

  Target resolve(std::size_t b, std::size_t e, int depth = 0);
  Target resolve_call(Sym name, std::size_t open, std::size_t close,
                      int depth);
  bool try_decl(std::size_t i, std::size_t& next);
  void bind(Sym name, const Target& t) { info_.locals[name].merge(t); }
  void scan_invoke_args(std::size_t i);
  void scan_this(std::size_t i);
  void scan_call_escapes(std::size_t i, std::size_t open, std::size_t close);

  const SourceModel& model_;
  const Round& round_;
  const FunctionDef& def_;
  std::map<Sym, std::size_t> param_pos_;
  Info info_;
  /// Locals stored into unmodelled sinks this pass; widened to ⊤ after the
  /// scan (binding statements may follow the escape in token order only
  /// inside loops, and the post-scan widening covers that too).
  std::set<Sym> escaped_;
  /// Holds a merged-by-simple-name callee summary while resolve_call uses it.
  Info info_merge_scratch_;
};

/// Resolves the expression [b, e) to an alias target in this frame.
Target FnParse::resolve(std::size_t b, std::size_t e, int depth) {
  if (depth > 8) return Target::top();
  if (b >= e) return Target::local();

  // Widening pre-checks over the whole expression: laundering casts kill
  // the binding outright; fresh allocations keep it frame-local.
  int nest = 0;
  bool arith = false;
  for (std::size_t k = b; k < e; ++k) {
    const Sym t = tk(k);
    if (t == sym::ConstCast || t == sym::ReinterpretCast) return Target::top();
    if (t == sym::New || t == sym::MakeUnique || t == sym::MakeShared)
      return Target::local();
    if (t == sym::LParen || t == sym::LBracket || t == sym::LBrace) ++nest;
    else if (t == sym::RParen || t == sym::RBracket || t == sym::RBrace) --nest;
    else if (nest == 0 &&
             (t == sym::Plus || t == sym::Minus || t == sym::Question))
      arith = true;
  }

  // Leading address-of / dereference / parens / related-type casts are
  // transparent: they change the handle's shape, not what it reaches.
  std::size_t k = b;
  while (k < e) {
    const Sym t = tk(k);
    if (t == sym::Amp || t == sym::Star || t == sym::LParen) {
      ++k;
      continue;
    }
    if (t == sym::StaticCast || t == sym::DynamicCast) {
      ++k;
      if (tk(k) == sym::Less) {
        int d = 0;
        for (; k < e; ++k) {
          if (tk(k) == sym::Less) ++d;
          else if (tk(k) == sym::Greater && --d == 0) {
            ++k;
            break;
          } else if (tk(k) == sym::Shr) {
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
  if (k >= e) return Target::local();

  bool base_this = false;
  Sym base = sym::Empty;
  Target base_target = Target::local();
  bool have_base_target = false;

  if (tk(k) == sym::This) {
    base_this = true;
    ++k;
  } else if (word(k)) {
    // Possibly qualified head: `ns::f(...)`, `std::move(...)`, `obj`.
    const Sym leading = tk(k);
    Sym last = tk(k);
    ++k;
    while (tk(k) == sym::Scope && k + 1 < e && ident(k + 1)) {
      last = tk(k + 1);
      k += 2;
    }
    if (k < e && tk(k) == sym::LParen) {
      const std::size_t close = match_fwd(k, sym::LParen, sym::RParen);
      if (leading == sym::Std && leading != last) {
        if (last == sym::Move || last == sym::Forward)
          return resolve(k + 1, std::min(close, e), depth + 1);
        return Target::top();  // unknown std result (std::ref, ...)
      }
      base_target = resolve_call(last, k, std::min(close, e), depth);
      have_base_target = true;
      k = std::min(close, e) + 1;
    } else {
      base = last;
    }
  } else {
    return Target::local();  // literal / placeholder
  }

  // Member chain: collect names, stay transparent through indexing and the
  // identity accessors, widen on any other call.
  Sym last_member = sym::Empty;
  while (k < e) {
    const Sym t = tk(k);
    if (t == sym::Dot || t == sym::Arrow) {
      if (k + 1 >= e || !ident(k + 1)) break;
      const Sym m = tk(k + 1);
      if (k + 2 < e && tk(k + 2) == sym::LParen) {
        if (!has(k + 1, kIdentity)) return Target::top();
        k = std::min(match_fwd(k + 2, sym::LParen, sym::RParen), e) +
            1;  // transparent
        continue;
      }
      last_member = m;
      k += 2;
      continue;
    }
    if (t == sym::LBracket) {
      k = std::min(match_fwd(k, sym::LBracket, sym::RBracket), e) +
          1;  // element-of: same subtree
      continue;
    }
    break;
  }

  if (arith) {
    // `p + n` / `&a - &b` / conditional expressions: address arithmetic or
    // a selection the flow-insensitive chain cannot follow.
    if (base_this || have_base_target || base != sym::Empty)
      return Target::top();
    return Target::local();
  }

  if (base_this) {
    if (last_member == sym::Empty) return Target::field({});
    return Target::field({last_member});
  }
  const bool named = last_member != sym::Empty;
  if (have_base_target) {
    Target t = base_target;
    if (named && (t.kind == AliasKind::Field || t.kind == AliasKind::Param))
      t.roots = {last_member};  // innermost member wins
    return t;
  }
  if (auto it = info_.locals.find(base); it != info_.locals.end()) {
    Target t = it->second;
    if (named && (t.kind == AliasKind::Field || t.kind == AliasKind::Param))
      t.roots = {last_member};
    return t;
  }
  if (auto it = param_pos_.find(base); it != param_pos_.end()) {
    std::set<Sym> roots;
    if (named) roots.insert(last_member);
    return Target::param({it->second}, std::move(roots));
  }
  // Unknown base identifier: a member of the enclosing class or a scanned
  // global — receiver-subtree either way, rooted at the innermost name.
  return Target::field({named ? last_member : base});
}

/// Resolves the value a call to `name` aliases, mapping the callee's
/// return summary into this frame through the k=1 call-site context.
Target FnParse::resolve_call(Sym name, std::size_t open, std::size_t close,
                             int depth) {
  if (model_.has(name, kClassName)) return Target::local();  // ctor
  const Info* callee = nullptr;
  if (def_.class_id != sym::Empty) callee = lookup(def_.class_id, name);
  if (callee == nullptr) callee = lookup(sym::Empty, name);
  if (callee == nullptr) {
    // Merge over every scanned definition sharing the simple name; the
    // union covers the actual callee when it was scanned at all.
    Info merged;
    bool any = false;
    auto named = model_.keys.by_name.find(name);
    if (named != model_.keys.by_name.end()) {
      for (const std::size_t k : named->second) {
        if (!round_.present[k]) continue;
        any = true;
        merged.returns.merge(round_.infos[k].returns);
        merged.has_return |= round_.infos[k].has_return;
      }
    }
    if (!any) return Target::top();
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
  const Target& r = callee->returns;
  if (r.kind != AliasKind::Param) return r;
  // Param return: re-resolve the argument expressions at the returned
  // positions in this frame, keeping the callee's (innermost) roots.
  if (r.positions.empty()) return Target::top();
  const auto args = split_args(open, close);
  Target out = Target::local();
  for (std::size_t p : r.positions) {
    if (p >= args.size()) return Target::top();
    Target at = resolve(args[p].first, args[p].second, depth + 1);
    if (!r.roots.empty() &&
        (at.kind == AliasKind::Field || at.kind == AliasKind::Param))
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
  const Sym after = tk(e);
  if (d->structured) {
    const Target t =
        indirect ? resolve(e + 1, stmt_end(e + 1, /*initializer=*/true))
                 : Target::local();
    for (const Sym n : d->names) bind(n, t);
    next = e + 1;
    return true;
  }
  const Sym name = d->names.front();
  if (!indirect && !d->is_auto) {
    bind(name, Target::local());  // by-value copy: writes stay local
    next = after == sym::Assign ? e + 1 : e;
    return true;
  }
  if (after == sym::Assign || after == sym::Colon) {
    bind(name, resolve(e + 1, stmt_end(e + 1, /*initializer=*/true)));
    next = e + 1;
  } else if (after == sym::LParen || after == sym::LBrace) {
    const std::size_t close =
        match_fwd(e, after, after == sym::LParen ? sym::RParen : sym::RBrace);
    bind(name, resolve(e + 1, close));
    next = e + 1;
  } else {
    bind(name, Target::local());  // no initializer
    next = e;
  }
  return true;
}

/// FAT_INVOKE_ARGS(name, std::tie(a, b), lambda): the tied parameters ride
/// in the checkpoint root tuple — record their positions.
void FnParse::scan_invoke_args(std::size_t i) {
  const std::size_t open = i + 1;
  if (tk(open) != sym::LParen) return;
  const std::size_t close = match_fwd(open, sym::LParen, sym::RParen);
  const auto args = split_args(open, close);
  if (args.size() < 2) return;
  const auto [b, e] = args[1];
  for (std::size_t k = b; k < e; ++k) {
    if (tk(k) != sym::Tie || tk(k + 1) != sym::LParen) continue;
    const std::size_t tclose = match_fwd(k + 1, sym::LParen, sym::RParen);
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
  const Sym next = tk(i + 1);
  const Sym prev = i > 0 ? tk(i - 1) : sym::Empty;
  if (next == sym::Arrow) return;  // member access
  if (prev == sym::LBracket && next == sym::RBracket) return;  // [this]
  if ((prev == sym::LBracket || prev == sym::Comma) &&
      (next == sym::RBracket || next == sym::Comma))
    return;  // capture list entry
  if (next == sym::EqEq || next == sym::NotEq || prev == sym::EqEq ||
      prev == sym::NotEq)
    return;  // identity comparison
  if (prev == sym::Return ||
      (prev == sym::Star && i >= 2 && tk(i - 2) == sym::Return))
    return;  // returned alias: used after the frame's own window closes
  if (prev == sym::Star) {
    // `(*this).member` — dereference feeding a member access.
    if (next == sym::RParen &&
        (tk(i + 2) == sym::Dot || tk(i + 2) == sym::Arrow))
      return;
    info_.this_top = true;
    return;
  }
  if (prev == sym::LParen || prev == sym::Comma) {
    // Argument position: walk back to the call's identifier.
    int depth = 0;
    for (std::ptrdiff_t k = static_cast<std::ptrdiff_t>(i) - 1; k >= 0; --k) {
      const Sym t = tk(static_cast<std::size_t>(k));
      if (t == sym::RParen || t == sym::RBracket || t == sym::RBrace) ++depth;
      else if (t == sym::LParen || t == sym::LBracket || t == sym::LBrace) {
        if (depth == 0) {
          if (k > 0 && word(static_cast<std::size_t>(k) - 1)) {
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
  const Sym name = tk(i);
  if (has(i, kMacro)) return;
  if (leading_qualifier(i) == sym::Std) return;
  if (has(i, kIdentity)) return;
  if (model_.keys.by_name.count(name)) return;  // a scanned function
  if (model_.has(name, kClassName)) return;
  for (std::size_t k = open + 1; k < close; ++k)
    if (ident(k) && info_.locals.count(tk(k))) escaped_.insert(tk(k));
}

Info FnParse::run() {
  bool stmt_start = true;
  std::size_t i = 0;
  while (i < size()) {
    const Sym t = tk(i);
    if (t == sym::Semi || t == sym::LBrace || t == sym::RBrace ||
        t == sym::LParen) {
      stmt_start = true;
      ++i;
      continue;
    }
    if (t == sym::This) {
      scan_this(i);
      stmt_start = false;
      ++i;
      continue;
    }
    if (t == sym::Return) {
      const std::size_t e = stmt_end(i);
      if (i + 1 < e) {
        Target r = resolve(i + 1, e);
        // An unresolvable return chain must poison the summary, not bottom
        // out: callers would otherwise treat the result as frame-local.
        info_.returns.merge(r);
        info_.has_return = true;
      }
      stmt_start = false;
      ++i;  // keep scanning inside the return expression (calls, this)
      continue;
    }
    if (stmt_start && ident(i)) {
      std::size_t next = i;
      if (try_decl(i, next)) {
        stmt_start = false;
        i = next;
        continue;
      }
    }
    if (word(i)) {
      if (has(i, kInvokeArgs)) scan_invoke_args(i);
      if (tk(i + 1) == sym::LParen) {
        const std::size_t close = match_fwd(i + 1, sym::LParen, sym::RParen);
        scan_call_escapes(i, i + 1, close);
      }
      // Reassignment of a bound local: flow-insensitive union with the new
      // value (`x = x->next` inside loops converges through the fixpoint).
      if (stmt_start && tk(i + 1) == sym::Assign && info_.locals.count(t))
        bind(t, resolve(i + 2, stmt_end(i + 2, /*initializer=*/true)));
      stmt_start = false;
      ++i;
      continue;
    }
    stmt_start = false;
    ++i;
  }
  for (const Sym n : escaped_) info_.locals[n] = Target::top();
  return std::move(info_);
}

/// A target with its names spelled out.
AliasTarget spelled(const Target& t, const SymbolTable& st) {
  AliasTarget out;
  out.kind = t.kind;
  for (const Sym r : t.roots) out.roots.insert(st.text(r));
  out.positions = t.positions;
  return out;
}

}  // namespace

std::vector<BasicFnAliasInfo<Sym>> analyze_alias_ids(
    const SourceModel& model) {
  Round round;
  round.infos.resize(model.keys.text.size());
  round.present.assign(model.keys.text.size(), false);

  // Optimistic fixpoint over the return-alias summaries: targets start at
  // the bottom (Local) and merges only move up the lattice, so iteration
  // converges; the cap is a backstop far above any real call-DAG depth.
  for (int round_no = 0; round_no < 10; ++round_no) {
    bool changed = false;
    for (std::size_t d = 0; d < model.functions.size(); ++d) {
      Info fresh = FnParse(model, round, model.functions[d]).run();
      const std::size_t key = model.keys.of_def[d];
      Info& cur = round.infos[key];
      round.present[key] = true;
      Info merged = cur;
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
  return std::move(round.infos);
}

AliasAnalysis analyze_aliases(const SourceModel& model) {
  const SymbolTable& st = model.symbols;
  const std::vector<Info> infos = analyze_alias_ids(model);
  AliasAnalysis out;
  for (std::size_t k = 0; k < infos.size(); ++k) {
    const Info& in = infos[k];
    FnAliasInfo& fi = out.by_key[model.keys.text[k]];
    for (const auto& [n, t] : in.locals) fi.locals[st.text(n)] = spelled(t, st);
    fi.tied_positions = in.tied_positions;
    fi.this_top = in.this_top;
    for (const Sym s : in.this_sinks) fi.this_sinks.insert(st.text(s));
    fi.returns = spelled(in.returns, st);
    fi.has_return = in.has_return;
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
    if (!cur.empty() && cur != "root" &&
        !std::isdigit(static_cast<unsigned char>(cur[0])))
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
