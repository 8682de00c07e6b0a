#include "fatomic/analyze/effects.hpp"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <unordered_map>
#include <unordered_set>

#include "fatomic/analyze/alias.hpp"
#include "fatomic/analyze/tokens.hpp"

namespace fatomic::analyze {

const char* EffectSummary::verdict() const {
  if (!scanned) return "unscanned";
  if (read_only) return "read-only";
  if (commit_point_last) return "commit-point-last";
  return "unproven";
}

namespace {

using Summary = BasicFnSummary<Sym>;
using Target = BasicAliasTarget<Sym>;
using AliasInfo = BasicFnAliasInfo<Sym>;

constexpr std::size_t npos = std::numeric_limits<std::size_t>::max();

/// Which caller-visible state an event touches.
enum class Kind { None, Fresh, TrackedLocal, SafeParam, TrackedParam, Env };

bool tracked(Kind k) {
  return k == Kind::TrackedLocal || k == Kind::TrackedParam || k == Kind::Env;
}

/// One positioned effect observation.  Positions are loop-widened: a
/// mutation inside a loop is placed at the loop's first token, a throw at
/// its last — statically, any iteration's throw may follow any iteration's
/// mutation.
struct Event {
  std::size_t pos = 0;
  bool mut = false;
  bool thr = false;
  bool via_param = false;  ///< mutation reaches the caller through a param
  /// Member names a mutation event may write.  Empty plus `target_unknown`
  /// means the write lands somewhere unresolvable — Pass 3 collapses the
  /// enclosing method's write set to ⊤.
  std::vector<Sym> targets;
  bool target_unknown = false;
  /// For via_param events: which of the enclosing function's parameter
  /// positions the write flows through.  Empty means "could not determine"
  /// and poisons the summary's position set (callers fall back to whole
  /// argument-list tracking).
  std::set<std::size_t> via_positions;
};

/// One definition's scan structure, built once per analysis: every fixpoint
/// round and the verdict scan the same effective body, try regions, loop
/// intervals and parameter table.
struct Scanned {
  const FunctionDef* def = nullptr;
  /// Effective body (the invoke lambda for instrumented definitions).
  Tokens body;
  /// Summary key id (SourceModel::keys).
  std::size_t key = 0;
  bool instrumented = false;
  /// The ClassModel the definition's class matches, if any.
  const ClassModel* cls = nullptr;
  /// Pass 5 bindings of this definition's key.
  const AliasInfo* alias = nullptr;
  /// The body's try statements, for catch-clause-aware throw suppression.
  std::vector<TryRegion> trys;
  /// Outermost loop interval covering each token, or npos.
  std::vector<std::size_t> loop_start, loop_end;
  /// Named parameters: tracked (non-const reference or pointer) and
  /// position.
  std::map<Sym, bool> params;
  std::map<Sym, std::size_t> param_pos;
  /// The events and catch flag of the latest fixpoint round.
  std::vector<Event> events;
  bool catches = false;
};

struct Ctx {
  const SourceModel* model;
  /// Summaries by key id: "Class::helper" / free "helper".
  const std::vector<Summary>* by_key;
  /// Summaries merged over every definition sharing a simple name — the
  /// sound resolution for calls whose receiver type is unknown — and the
  /// slot of each name symbol in it (npos for names no definition has).
  const std::vector<Summary>* by_name;
  const std::vector<std::size_t>* name_slot;
  /// Class ids of scanned definitions, by simple class name — the
  /// candidate set for receiver-typed call resolution.
  const std::unordered_map<Sym, std::set<Sym>>* def_classes_by_simple;
  /// Simple class names with any dynamic-dispatch risk (FAT_POLY, or on
  /// either side of an inheritance edge): receiver-typed resolution must
  /// not narrow calls through these, an unscanned override could run.
  const std::unordered_set<Sym>* dispatch_risky;
  /// Per declared member or variable: the instrumented method names of
  /// every class whose simple name occurs in its declared type.
  const std::unordered_map<Sym, std::set<Sym>>* type_methods;
};

/// Scans one function body, producing effect events against the current
/// summary table (see analyze_effects for the fixpoint driving this).
class BodyScan : private TokenCursor {
 public:
  BodyScan(const Scanned& plan, const Ctx& ctx)
      : TokenCursor(plan.body, ctx.model->symbols),
        plan_(plan),
        ctx_(ctx),
        alias_(*plan.alias) {}

  void run();

  std::vector<Event> events;
  bool catches = false;

 private:
  struct Var {
    bool tracked = false;
    /// Declared with a value type: writes to it can never reach the caller,
    /// so reassignment keeps it untracked no matter the right-hand side.
    bool value_type = false;
    /// Declared as a reference: a plain assignment writes *through* the
    /// binding into the aliased object, it never rebinds.
    bool is_ref = false;
  };

  Kind classify(Sym name) const {
    if (auto it = locals_.find(name); it != locals_.end())
      return it->second.tracked ? Kind::TrackedLocal : Kind::Fresh;
    if (auto it = plan_.params.find(name); it != plan_.params.end())
      return it->second ? Kind::TrackedParam : Kind::SafeParam;
    return Kind::Env;
  }

  /// Is token k a base identifier of an expression (not a member/qualified
  /// name component, not a literal or keyword)?
  bool base_ident_at(std::size_t k, std::size_t from) const {
    if (!word(k)) return false;
    if (k > from) {
      const Sym prev = tk(k - 1);
      if (prev == sym::Dot || prev == sym::Arrow || prev == sym::Scope)
        return false;
    }
    if (tk(k + 1) == sym::Scope) return false;
    return true;
  }

  /// Worst base identifier found in [b, e): does the expression reach
  /// tracked state, and through a parameter only?
  std::pair<bool, bool> expr_state(std::size_t b, std::size_t e) const {
    bool any = false, env = false;
    for (std::size_t k = b; k < e; ++k) {
      if (!base_ident_at(k, b)) continue;
      const Kind kind = classify(tk(k));
      if (!tracked(kind)) continue;
      any = true;
      if (kind != Kind::TrackedParam) env = true;
    }
    return {any, any && !env};
  }

  /// Parameter positions referenced by tracked-parameter bases in [b, e).
  std::set<std::size_t> expr_positions(std::size_t b, std::size_t e) const {
    std::set<std::size_t> out;
    for (std::size_t k = b; k < e; ++k) {
      if (!base_ident_at(k, b)) continue;
      if (classify(tk(k)) != Kind::TrackedParam) continue;
      auto it = plan_.param_pos.find(tk(k));
      if (it != plan_.param_pos.end()) out.insert(it->second);
    }
    return out;
  }

  /// Does the initializer expression denote freshly owned storage (writes
  /// through the declared pointer cannot reach any caller-visible object)?
  bool expr_fresh(std::size_t b, std::size_t e) const {
    if (b >= e) return true;  // no initializer: default construction
    for (std::size_t k = b; k < e; ++k) {
      const Sym t = tk(k);
      if (t == sym::New || t == sym::MakeUnique || t == sym::MakeShared)
        return true;
    }
    for (std::size_t k = b; k < e; ++k) {
      if (!base_ident_at(k, b)) continue;
      const Kind kind = classify(tk(k));
      if (kind != Kind::Fresh && kind != Kind::SafeParam) return false;
      // Fresh base: the rest must be pure derivation (member accesses on
      // it), e.g. `chain.get()` — any second base identifier spoils it.
      for (std::size_t m = k + 1; m < e; ++m)
        if (base_ident_at(m, b)) return false;
      return true;
    }
    return true;  // literals / nullptr only
  }

  struct Chain {
    bool deref = false;
    Kind base = Kind::None;
    /// Base identifier the chain starts from (classified into `base`).
    Sym base_name = sym::Empty;
    /// Identifier nearest the end of the chain — the immediate receiver of
    /// a member call (`children` in `root_->children.push_back`).  Empty
    /// when the chain ends in a call or index result.
    Sym recv_name = sym::Empty;
    /// recv_name itself is dereferenced (`*p = v` writes p's pointee, not a
    /// member named "p") — the name must not be used as a write target.
    bool recv_starred = false;
    /// Member hops between the base and the written slot (`n->f` = 1,
    /// `w.p->value` = 2).  A write one hop into a frame-local object lands
    /// in that object's own storage; a second hop re-enters whatever its
    /// members point at, which the per-variable alias lattice cannot bound.
    std::size_t hops = 0;
  };

  /// Resolves the postfix chain ending just before token `end` (an
  /// assignment-like operator): whether it writes through a dereference and
  /// what its base identifier is.  Handles `a`, `a->b.c`, `(*p).x`,
  /// `f(args)->m`, `arr[i]`.
  Chain chain_before(std::size_t end) const {
    Chain c;
    Sym base = sym::Empty;
    bool first = true;
    // A trailing index group makes the *owning* identifier the written
    // target (`buckets_[i] = v` writes buckets_) — unless a call group
    // intervenes, whose result owns the elements instead.
    bool pending_index = false;
    std::ptrdiff_t j = static_cast<std::ptrdiff_t>(end) - 1;
    while (j >= 0) {
      const auto uj = static_cast<std::size_t>(j);
      const Sym t = tk(uj);
      const bool name = word(uj);
      if (name && first) {
        c.recv_name = t;
        c.recv_starred = j > 0 && tk(uj - 1) == sym::Star;
        first = false;
      } else if (t != sym::Dot && t != sym::Scope) {
        if (t == sym::RBracket && first && c.recv_name == sym::Empty)
          pending_index = true;
        first = false;
      }
      if (t == sym::RParen || t == sym::RBracket) {
        const bool call = t == sym::RParen;
        const std::ptrdiff_t open =
            match_back(j, call ? sym::LParen : sym::LBracket, t);
        if (open < 0) break;
        if (call) pending_index = false;
        if (call && open > 0 &&
            ctx_.model->has(tk(static_cast<std::size_t>(open) - 1),
                            kClassName)) {
          // `Parser(src).parse_document()` — the receiver is a freshly
          // constructed temporary; mutations through it never reach the
          // caller.
          c.base = Kind::Fresh;
          return c;
        }
        if (!call) c.deref = true;
        j = open - 1;
        continue;
      }
      if (t == sym::This) {
        // `*this = other` / `(*this).x = v`: the receiver itself is the
        // base.  `this` classifies as Env (never a local or parameter).
        base = t;
        --j;
        continue;
      }
      if (name) {
        if (pending_index && c.recv_name == sym::Empty) {
          c.recv_name = t;
          c.recv_starred = j > 0 && tk(uj - 1) == sym::Star;
          pending_index = false;
        }
        base = t;
        --j;
        continue;
      }
      if (t == sym::Dot || t == sym::Scope) {
        if (t == sym::Dot) ++c.hops;
        --j;
        continue;
      }
      if (t == sym::Arrow || t == sym::Star) {
        c.deref = true;
        if (t == sym::Arrow) ++c.hops;
        --j;
        continue;
      }
      break;
    }
    if (base != sym::Empty) {
      c.base = classify(base);
      c.base_name = base;
    }
    return c;
  }

  /// Resolves the operand chain starting at token `b` (prefix ++/--/delete).
  Chain chain_after(std::size_t b) const {
    Chain c;
    std::size_t k = b;
    bool leading_star = false;
    while (k < size() && (tk(k) == sym::Star || tk(k) == sym::LParen)) {
      if (tk(k) == sym::Star) {
        c.deref = true;
        leading_star = true;
      }
      ++k;
    }
    Sym base = sym::Empty;
    while (k < size()) {
      const Sym t = tk(k);
      if (t == sym::This) {  // `++this->count_`: the receiver is the base
        if (base == sym::Empty) base = t;
        ++k;
        continue;
      }
      if (word(k)) {
        if (base == sym::Empty) base = t;
        c.recv_name = t;  // last identifier wins: the written member
        ++k;
        continue;
      }
      if (t == sym::Dot || t == sym::Scope) {
        if (t == sym::Dot) {
          leading_star = false;  // star applied to an earlier link
          ++c.hops;
        }
        ++k;
        continue;
      }
      if (t == sym::Arrow) {
        c.deref = true;
        leading_star = false;
        ++c.hops;
        ++k;
        continue;
      }
      break;
    }
    if (base != sym::Empty) {
      c.base = classify(base);
      c.base_name = base;
    }
    c.recv_starred = leading_star;
    return c;
  }

  /// Parameter position of a chain's base, when it is a tracked parameter.
  std::set<std::size_t> chain_positions(const Chain& c) const {
    std::set<std::size_t> out;
    if (c.base == Kind::TrackedParam) {
      auto it = plan_.param_pos.find(c.base_name);
      if (it != plan_.param_pos.end()) out.insert(it->second);
    }
    return out;
  }

  /// Caller-side write targets for an argument expression: when [b, e) is a
  /// pure member chain (`head_`, `other.head_`), the written state lives
  /// inside that named subtree.  A bare tracked local resolves through its
  /// alias binding when that names a receiver subtree (Pass 5); calls,
  /// indexing, dereferences, and unresolved locals yield no usable target.
  std::pair<std::vector<Sym>, bool> arg_target(std::size_t b,
                                               std::size_t e) const {
    for (std::size_t k = b; k < e; ++k) {
      const Sym t = tk(k);
      if (t == sym::Dot || t == sym::Arrow || t == sym::Scope) continue;
      if (!word(k)) return {{}, false};
    }
    const Chain c = chain_before(e);
    if (c.recv_name == sym::Empty || c.recv_starred) return {{}, false};
    if (locals_.count(c.recv_name)) {
      if (c.recv_name == c.base_name) {
        auto it = alias_.locals.find(c.base_name);
        if (it != alias_.locals.end() &&
            it->second.kind == AliasKind::Field && !it->second.roots.empty())
          return {{it->second.roots.begin(), it->second.roots.end()}, true};
      }
      return {{}, false};
    }
    return {{c.recv_name}, true};
  }

  void emit(std::size_t pos, bool mut, bool thr, bool via_param,
            std::vector<Sym> targets = {}, bool target_unknown = true,
            std::set<std::size_t> via_positions = {});
  /// Mutation with at most one named target; `target_valid` is false when
  /// the name does not denote the written member (starred/empty chains).
  void emit_mut(std::size_t pos, Kind base, Sym target = sym::Empty,
                bool target_valid = false,
                std::set<std::size_t> via_positions = {}) {
    const bool named = target_valid && target != sym::Empty;
    emit(pos, true, false, base == Kind::TrackedParam,
         named ? std::vector<Sym>{target} : std::vector<Sym>{}, !named,
         std::move(via_positions));
  }
  /// Mutation whose targets come from a callee summary's write-name set.
  void emit_mut_set(std::size_t pos, Kind base, const std::set<Sym>& names,
                    bool unknown, std::set<std::size_t> via_positions = {}) {
    emit(pos, true, false, base == Kind::TrackedParam,
         std::vector<Sym>(names.begin(), names.end()), unknown,
         std::move(via_positions));
  }

  /// Mutation through a tracked local (Pass 5): the alias binding of the
  /// chain's base decides where the write lands.  Frame-local storage drops
  /// the event, a receiver-subtree binding yields a named environment write
  /// rooted at the aliased members, a parameter binding yields a positioned
  /// via_param write, and ⊤ (or no binding) collapses to an unnamed
  /// environment write.
  /// When the chain names a member deeper than the base (`p->next = v`),
  /// that member is the write target — never the local's own name, which is
  /// caller-meaningless (and could shadow a real member).
  void emit_write(std::size_t pos, const Chain& c) {
    auto it = alias_.locals.find(c.base_name);
    const Target* t = it == alias_.locals.end() ? nullptr : &it->second;
    const bool deeper = c.recv_name != sym::Empty && !c.recv_starred &&
                        c.recv_name != c.base_name;
    const Sym member = deeper ? c.recv_name : sym::Empty;
    if (t == nullptr || t->kind == AliasKind::Top) {
      emit_mut(pos, Kind::Env, member, deeper);
      return;
    }
    if (t->kind == AliasKind::Local) {
      // Frame-local storage: droppable only while the write stays in the
      // object's own slots (`n->f = v`).  A second member hop re-enters
      // whatever those slots point at — a ctor frame may have stashed a
      // receiver subtree there (`Wrap w(head_); w.p->value = v`) — so the
      // write falls back to the named-environment path.
      if (c.hops <= 1) return;
      emit_mut(pos, Kind::Env, member, deeper);
      return;
    }
    std::vector<Sym> targets;
    if (deeper)
      targets.push_back(c.recv_name);
    else
      targets.assign(t->roots.begin(), t->roots.end());
    const bool unknown = targets.empty();
    emit(pos, true, false, t->kind == AliasKind::Param, std::move(targets),
         unknown,
         t->kind == AliasKind::Param ? t->positions : std::set<std::size_t>{});
  }

  bool local_is_ref(Sym name) const {
    auto it = locals_.find(name);
    return it != locals_.end() && it->second.is_ref;
  }

  /// Param-mutation events for a call to a summarized callee.  When the
  /// callee's written parameter positions are known, only the argument
  /// expressions at those positions are re-evaluated (and the argument
  /// chain itself names the written subtree); otherwise any tracked
  /// argument anywhere in the list counts, with the callee's own write
  /// names.
  void emit_param_writes(std::size_t i, std::size_t close, const Summary& s);
  /// Mutation events for a library call that may write through any tracked
  /// argument (std::move, generic algorithms, unknown member calls' args).
  void tracked_args_mut(std::size_t i, std::size_t close);

  const Summary* lookup_key(Sym cls, Sym name) const {
    const std::size_t k = ctx_.model->keys.find(cls, name);
    return k == DefKeys::npos ? nullptr : &(*ctx_.by_key)[k];
  }
  const Summary* lookup_name(Sym name) const {
    const std::size_t slot = (*ctx_.name_slot)[name];
    return slot == npos ? nullptr : &(*ctx_.by_name)[slot];
  }

  /// Pass 4 receiver-typed call resolution: when the receiver's declared
  /// type names specific scanned classes — none of them dispatch-risky —
  /// the call can only reach those classes' definitions, so exactly their
  /// by-key summaries merge (instead of the by-name union over every class
  /// sharing the method name).  Fails (returns false) whenever the
  /// receiver, its declared type, or any named class is unknown: callers
  /// keep the conservative resolution.
  bool receiver_summary(const Chain& recv, Sym method, Summary* out) const;

  void handle_call(std::size_t i);
  bool try_decl(std::size_t i, std::size_t& next);
  bool try_lambda(std::size_t i, std::size_t& next);

  /// True when the immediate receiver is a declared member or variable
  /// whose type mentions none of the classes instrumenting `method` — e.g.
  /// `head_.reset()` where head_ is a unique_ptr and only Regexp instruments
  /// a `reset`.  Unknown receivers and unknown declared types keep the
  /// conservative answer (false: treat the call as an injection point).
  bool field_rules_out_instrumented(Sym recv_name, Sym method) const {
    if (recv_name == sym::Empty) return false;
    auto it = ctx_.type_methods->find(recv_name);
    return it != ctx_.type_methods->end() && !it->second.count(method);
  }

  const Scanned& plan_;
  const Ctx& ctx_;
  /// Pass 5 alias bindings for this definition: writes through tracked
  /// locals resolve to the receiver subtree (or parameter position) the
  /// local aliases instead of collapsing to an unresolved environment write.
  const AliasInfo& alias_;
  std::map<Sym, Var> locals_;
  /// Simple type name of the explicit `throw` currently being emitted
  /// (sym::Empty otherwise): lets emit() consult typed catch handlers.
  Sym throw_hint_ = sym::Empty;
};

void BodyScan::emit(std::size_t pos, bool mut, bool thr, bool via_param,
                    std::vector<Sym> targets, bool target_unknown,
                    std::set<std::size_t> via_positions) {
  // Catch-clause-aware suppression (Pass 4): a throw that provably cannot
  // leave the function is no injection-ordering constraint for callers.
  // The decision uses the original position — loop widening never moves an
  // event across the braces of a try block that contains the loop.
  if (thr && !escapes(plan_.trys, *ctx_.model, pos, throw_hint_)) thr = false;
  if (mut) {
    Event ev;
    ev.pos = pos < plan_.loop_start.size() && plan_.loop_start[pos] != npos
                 ? plan_.loop_start[pos]
                 : pos;
    ev.mut = true;
    ev.via_param = via_param;
    ev.targets = std::move(targets);
    ev.target_unknown = target_unknown;
    ev.via_positions = std::move(via_positions);
    events.push_back(std::move(ev));
  }
  if (thr) {
    Event ev;
    ev.pos = pos < plan_.loop_end.size() && plan_.loop_end[pos] != npos
                 ? plan_.loop_end[pos]
                 : pos;
    ev.thr = true;
    events.push_back(std::move(ev));
  }
}

void BodyScan::emit_param_writes(std::size_t i, std::size_t close,
                                 const Summary& s) {
  if (!s.mutates_params) return;
  if (!s.param_positions_unknown && !s.write_param_positions.empty()) {
    const auto args = split_args(i + 1, close);
    bool in_range = true;
    for (std::size_t p : s.write_param_positions)
      if (p >= args.size()) in_range = false;
    if (in_range) {
      for (std::size_t p : s.write_param_positions) {
        const auto [b, e] = args[p];
        const auto [arg_tracked, arg_param_only] = expr_state(b, e);
        if (!arg_tracked) continue;
        auto [tnames, tvalid] = arg_target(b, e);
        emit(i, true, false, arg_param_only,
             tvalid ? std::move(tnames) : std::vector<Sym>{}, !tvalid,
             arg_param_only ? expr_positions(b, e) : std::set<std::size_t>{});
      }
      return;
    }
  }
  const auto [args_tracked, args_param_only] = expr_state(i + 2, close);
  if (!args_tracked) return;
  emit_mut_set(i, args_param_only ? Kind::TrackedParam : Kind::Env,
               s.param_writes, s.param_writes_unknown,
               args_param_only ? expr_positions(i + 2, close)
                               : std::set<std::size_t>{});
}

void BodyScan::tracked_args_mut(std::size_t i, std::size_t close) {
  for (const auto& [b, e] : split_args(i + 1, close)) {
    const auto [arg_tracked, arg_param_only] = expr_state(b, e);
    if (!arg_tracked) continue;
    auto [tnames, tvalid] = arg_target(b, e);
    emit(i, true, false, arg_param_only,
         tvalid ? std::move(tnames) : std::vector<Sym>{}, !tvalid,
         arg_param_only ? expr_positions(b, e) : std::set<std::size_t>{});
  }
}

bool BodyScan::receiver_summary(const Chain& recv, Sym method,
                                Summary* out) const {
  if (recv.recv_name == sym::Empty || recv.recv_starred) return false;
  // The words of the merged declared type, compared whole (a substring
  // match would confuse LinkedList with LinkedListFixed).
  const Tokens* words = ctx_.model->declared(recv.recv_name);
  if (words == nullptr) return false;
  Summary merged;
  bool any = false;
  for (const Sym word : *words) {
    auto cit = ctx_.def_classes_by_simple->find(word);
    if (cit == ctx_.def_classes_by_simple->end()) continue;
    if (ctx_.dispatch_risky->count(word)) return false;
    for (const Sym cls : cit->second) {
      const Summary* s = lookup_key(cls, method);
      // A class named in the type without a scanned definition of the
      // method means the real callee may be unscanned: no narrowing.
      if (s == nullptr) return false;
      any = true;
      merged.join(*s);
    }
  }
  if (!any) return false;
  *out = merged;
  return true;
}

/// A call expression `name(` at token i: classify it and emit its events.
void BodyScan::handle_call(std::size_t i) {
  if (has(i, kMacro)) return;
  const Sym name = tk(i);
  const Sym prev = i > 0 ? tk(i - 1) : sym::Empty;
  const std::size_t close = match_fwd(i + 1, sym::LParen, sym::RParen);
  const auto [args_tracked, args_param_only] = expr_state(i + 2, close);
  const SourceModel& model = *ctx_.model;

  if (prev == sym::Scope) {
    // Qualified call: either the standard library or a scanned namespace.
    if (leading_qualifier(i) == sym::Std) {
      if (name == sym::Move || name == sym::Forward) {
        // Move-steal: the argument's guts are gone afterwards — a write to
        // exactly the moved-from chain.
        tracked_args_mut(i, close);
        return;
      }
      if (has(i, kPureStd)) return;
      // Generic algorithm: may mutate through whatever it was handed, but
      // contains no injection point (the fault model injects only at
      // instrumented methods — DESIGN.md §7).
      tracked_args_mut(i, close);
      return;
    }
    if (const Summary* s = lookup_name(name)) {
      if (s->mutates_env)
        emit_mut_set(i, Kind::Env, s->writes, s->writes_unknown);
      emit_param_writes(i, close, *s);
      emit(i, false, s->may_throw, false);
      return;
    }
    emit(i, args_tracked, true, args_param_only, {}, true,
         args_param_only ? expr_positions(i + 2, close)
                         : std::set<std::size_t>{});  // unknown qualified call
    return;
  }

  if (prev == sym::Dot || prev == sym::Arrow) {
    // Member call: resolve the receiver chain ending before the separator.
    const Chain recv = chain_before(i - 1);
    const bool recv_tracked = tracked(recv.base);
    const Kind recv_kind =
        recv.base == Kind::TrackedParam ? Kind::TrackedParam : Kind::Env;
    // Zero-argument accessor check first: `head_.get()` must not resolve to
    // the instrumented HashedMap::get — every instrumented method sharing a
    // whitelisted name takes arguments, so arity disambiguates.
    if (close == i + 2 && has(i, kPureMember)) return;
    if (model.has(name, kInstrumentedName)) {
      if (field_rules_out_instrumented(recv.recv_name, name)) {
        // The receiver is a field of known non-subject type (`head_` is a
        // unique_ptr, not a Regexp), so this cannot be the instrumented
        // method of the same name — and a name-based summary lookup would
        // mis-resolve to it.  Library treatment: mutation only.  The write
        // lands inside the named member (`head_.reset()` rewrites head_).
        if (recv_tracked) {
          if (recv.base == Kind::TrackedLocal)
            emit_write(i, recv);
          else
            emit_mut(i, recv_kind, recv.recv_name, !recv.recv_starred,
                     chain_positions(recv));
        }
        return;
      }
      // Receiver-typed narrowing first: when the declared type pins the
      // receiver to specific scanned classes, their merged summary decides
      // both the write set and fallibility (may_throw already folds the
      // injection point for instrumented definitions).
      Summary rs;
      if (receiver_summary(recv, name, &rs)) {
        if (recv_tracked && rs.mutates_env)
          emit_mut_set(i, recv_kind, rs.writes, rs.writes_unknown,
                       chain_positions(recv));
        emit_param_writes(i, close, rs);
        emit(i, false, rs.may_throw, false);
        return;
      }
      // Potential injection point no matter the receiver type; mutation
      // only if some definition of that name mutates and the receiver is
      // caller-visible.
      const Summary* s = lookup_name(name);
      if (recv_tracked && s != nullptr && s->mutates_env)
        emit_mut_set(i, recv_kind, s->writes, s->writes_unknown,
                     chain_positions(recv));
      emit(i, false, true, false);
      return;
    }
    Summary rs;
    if (receiver_summary(recv, name, &rs)) {
      if (rs.mutates_env && recv_tracked)
        emit_mut_set(i, recv_kind, rs.writes, rs.writes_unknown,
                     chain_positions(recv));
      emit_param_writes(i, close, rs);
      emit(i, false, rs.may_throw, false);
      return;
    }
    if (const Summary* s = lookup_name(name)) {
      if (s->mutates_env && recv_tracked)
        emit_mut_set(i, recv_kind, s->writes, s->writes_unknown,
                     chain_positions(recv));
      emit_param_writes(i, close, *s);
      emit(i, false, s->may_throw, false);
      return;
    }
    if (has(i, kPureMember) || model.has(name, kCleanConstName)) return;
    // Unknown library member call: mutation when the receiver is tracked,
    // no injection point inside.  The mutation stays within the receiver
    // chain's final member (`root_->children.push_back(x)` writes children).
    if (recv_tracked) {
      if (recv.base == Kind::TrackedLocal)
        emit_write(i, recv);
      else
        emit_mut(i, recv_kind, recv.recv_name, !recv.recv_starred,
                 chain_positions(recv));
    }
    return;
  }

  // Unqualified call: a sibling/self call or a free function.
  const Sym own_class = plan_.def->class_id;
  if (model.has(name, kInstrumentedName)) {
    // An unqualified call from a member function resolves to the same
    // class's member when one exists — its exact by-key summary beats the
    // by-name union over every class sharing the (instrumented) name.
    const Summary* s = nullptr;
    if (own_class != sym::Empty) s = lookup_key(own_class, name);
    if (s == nullptr) s = lookup_name(name);
    if (s != nullptr && s->mutates_env)
      emit_mut_set(i, Kind::Env, s->writes, s->writes_unknown);
    if (s != nullptr) emit_param_writes(i, close, *s);
    emit(i, false, true, false);
    return;
  }
  const Summary* s = nullptr;
  if (own_class != sym::Empty) s = lookup_key(own_class, name);
  if (s == nullptr) s = lookup_key(sym::Empty, name);
  if (s == nullptr) s = lookup_name(name);
  if (s != nullptr) {
    if (s->mutates_env)
      emit_mut_set(i, Kind::Env, s->writes, s->writes_unknown);
    emit_param_writes(i, close, *s);
    emit(i, false, s->may_throw, false);
    return;
  }
  if (model.has(name, kCleanConstName)) return;
  // Unknown unqualified call (an unscanned constructor or free function):
  // fallible, and mutating when handed anything tracked.  With only safe
  // arguments it cannot reach caller-visible state — the subjects use no
  // mutable globals (DESIGN.md §7 assumptions).
  emit(i, args_tracked, true, args_param_only, {}, true,
       args_param_only ? expr_positions(i + 2, close)
                       : std::set<std::size_t>{});
}

/// Tries to parse a local-variable declaration at statement start; on
/// success registers the names and leaves `next` at the initializer (so the
/// linear scan still sees calls inside it) or after the declarator.
bool BodyScan::try_decl(std::size_t i, std::size_t& next) {
  const std::optional<DeclHead> d = parse_decl_head(*this, i);
  if (!d) return false;
  if (d->structured) {
    const bool track = d->is_ref && !d->is_const;
    for (const Sym n : d->names) locals_[n] = Var{track, !d->is_ref, d->is_ref};
    next = d->end + 1;
    return true;
  }
  const bool init = tk(d->end) == sym::Assign;
  const std::size_t b = init ? d->end + 1 : d->end;
  bool track = false;
  bool value_type = false;
  if (d->is_ref)
    track = !d->is_const;  // non-const alias: writes hit the aliased object
  else if (d->is_ptr || d->is_auto)
    track = !expr_fresh(b, init ? stmt_end(b, /*initializer=*/true) : b);
  else
    value_type = true;
  locals_[d->names.front()] = Var{track, value_type, d->is_ref};
  next = b;
  return true;
}

/// Registers the by-value parameters of a lambda introducer at `i` as
/// value-type locals (a continuation's `p` must not classify as Env, which
/// turned `rep(p)` into a phantom environment write).  Reference parameters
/// stay unregistered: writing through them aliases caller state, and the
/// conservative Env classification is the sound one.
bool BodyScan::try_lambda(std::size_t i, std::size_t& next) {
  // Expression position only: after an identifier, `)`, or `]` the bracket
  // is an index, not a lambda introducer.
  if (i > 0 && (has(i - 1, kIdent | kNumber) || tk(i - 1) == sym::RParen ||
                tk(i - 1) == sym::RBracket))
    return false;
  const std::size_t cb = match_fwd(i, sym::LBracket, sym::RBracket);
  if (cb >= size() || tk(cb + 1) != sym::LParen) return false;
  const std::size_t pc = match_fwd(cb + 1, sym::LParen, sym::RParen);
  if (pc >= size()) return false;
  for (const auto& [b, e] : split_args(cb + 1, pc)) {
    bool by_ref = false;
    Sym last_ident = sym::Empty;
    for (std::size_t k = b; k < e; ++k) {
      const Sym t = tk(k);
      if (t == sym::Amp || t == sym::AmpAmp || t == sym::Star) by_ref = true;
      if (word(k)) last_ident = t;
    }
    if (!by_ref && last_ident != sym::Empty)
      locals_[last_ident] = Var{false, true};
  }
  next = pc + 1;
  return true;
}

void BodyScan::run() {
  bool stmt_start = true;
  std::size_t i = 0;
  while (i < size()) {
    const Sym t = tk(i);
    if (t == sym::Semi || t == sym::LBrace || t == sym::RBrace) {
      stmt_start = true;
      ++i;
      continue;
    }
    if (t == sym::LParen) {
      stmt_start = true;  // for-init / if-declaration positions
      ++i;
      continue;
    }
    if (t == sym::LBracket) {
      std::size_t next = i;
      if (try_lambda(i, next)) {
        i = next;
        continue;
      }
      ++i;
      continue;
    }
    if (t == sym::Throw) {
      // The thrown expression's constructor runs before anything can have
      // been mutated by it; suppress its call events.  A statically known
      // thrown type lets typed catch handlers of enclosing try blocks stop
      // the propagation; a bare `throw;` or a rethrown variable keeps the
      // unknown type.
      throw_hint_ = thrown_type(*this, i, *ctx_.model);
      emit(i, false, true, false);
      throw_hint_ = sym::Empty;
      i = stmt_end(i) + 1;
      stmt_start = true;
      continue;
    }
    if (t == sym::Catch) {
      catches = true;
      ++i;
      continue;
    }
    if (t == sym::Delete) {
      const Chain c = chain_after(
          i + 1 < size() && tk(i + 1) == sym::LBracket ? i + 3 : i + 1);
      // The named pointer's graph is destroyed — a structural write to the
      // member holding it (its pointer type keeps it out of partial plans).
      if (c.base == Kind::TrackedLocal ||
          (c.base == Kind::Fresh && c.hops > 1))
        emit_write(i, c);
      else if (tracked(c.base))
        emit_mut(i, c.base, c.recv_name, !c.recv_starred, chain_positions(c));
      ++i;
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
    stmt_start = false;
    if (word(i)) {
      if (tk(i + 1) == sym::LParen) handle_call(i);
      ++i;
      continue;
    }
    if (has(i, kAssignOp)) {
      const Chain c = chain_before(i);
      if (c.deref) {
        // Fresh bases drop too — but only within the object's own slots: a
        // second member hop re-enters whatever the frame stashed there
        // (emit_write applies the same hop rule to tracked locals).
        if (c.base == Kind::TrackedLocal ||
            (c.base == Kind::Fresh && c.hops > 1))
          emit_write(i, c);
        else if (tracked(c.base))
          emit_mut(i, c.base, c.recv_name, !c.recv_starred,
                   chain_positions(c));
      } else if (c.base == Kind::Env || c.base == Kind::TrackedParam) {
        emit_mut(i, c.base, c.recv_name, !c.recv_starred, chain_positions(c));
      } else if (c.base == Kind::TrackedLocal && local_is_ref(c.base_name)) {
        // Assignment through a reference binding writes the aliased object
        // (it never rebinds).
        emit_write(i, c);
      } else if (t == sym::Assign &&
                 (c.base == Kind::Fresh || c.base == Kind::TrackedLocal)) {
        // Reassigning a local pointer: its freshness follows the new value.
        std::ptrdiff_t j = static_cast<std::ptrdiff_t>(i) - 1;
        while (j >= 0 && !ident(static_cast<std::size_t>(j))) --j;
        if (j >= 0) {
          auto it = locals_.find(tk(static_cast<std::size_t>(j)));
          if (it != locals_.end() && !it->second.value_type)
            it->second.tracked = !expr_fresh(i + 1, stmt_end(i));
        }
      }
      ++i;
      continue;
    }
    if (t == sym::PlusPlus || t == sym::MinusMinus) {
      const Sym nxt = tk(i + 1);
      const Chain c =
          (ident(i + 1) || nxt == sym::LParen || nxt == sym::Star)
              ? chain_after(i + 1)
              : chain_before(i);
      if ((c.base == Kind::TrackedLocal &&
           (c.deref || local_is_ref(c.base_name))) ||
          (c.base == Kind::Fresh && c.deref && c.hops > 1))
        emit_write(i, c);
      else if (c.deref ? tracked(c.base)
                       : (c.base == Kind::Env || c.base == Kind::TrackedParam))
        emit_mut(i,
                 c.base == Kind::TrackedParam ? Kind::TrackedParam : Kind::Env,
                 c.recv_name, !c.recv_starred, chain_positions(c));
      ++i;
      continue;
    }
    if (t == sym::Shl || t == sym::Shr) {
      // Stream insertion/extraction mutates its left operand (shifts on
      // literals and untracked values resolve to Kind::None/Fresh).
      const Chain c = chain_before(i);
      if (c.base == Kind::TrackedLocal ||
          (c.base == Kind::Fresh && c.hops > 1))
        emit_write(i, c);
      else if (c.base == Kind::Env || c.base == Kind::TrackedParam ||
               c.base == Kind::TrackedLocal)
        emit_mut(i, c.base, c.recv_name, !c.recv_starred, chain_positions(c));
      ++i;
      continue;
    }
    ++i;
  }
}

/// Extracted FAT_INVOKE lambda body of an instrumented wrapper, or the whole
/// body when no invoke macro is present (plain helpers).
Tokens effective_body(const FunctionDef& def, const SymbolTable& symbols,
                      bool* instrumented_macro) {
  *instrumented_macro = false;
  const TokenCursor c(def.body, symbols);
  for (std::size_t i = 0; i < c.size(); ++i) {
    if (!c.has(i, kInvoke)) continue;
    std::size_t open = i + 1;
    while (open < c.size() && c.tk(open) != sym::LBrace) ++open;
    if (open >= c.size()) continue;
    const std::size_t close = c.match_fwd(open, sym::LBrace, sym::RBrace);
    if (close >= c.size()) return def.body;
    *instrumented_macro = true;
    return Tokens(def.body.begin() + static_cast<std::ptrdiff_t>(open) + 1,
                  def.body.begin() + static_cast<std::ptrdiff_t>(close));
  }
  return def.body;
}

/// Outermost loop interval covering each token of the plan's body.
void loop_intervals(Scanned& s, const SymbolTable& symbols) {
  const TokenCursor c(s.body, symbols);
  const std::size_t n = c.size();
  s.loop_start.assign(n, npos);
  s.loop_end.assign(n, npos);
  std::size_t i = 0;
  while (i < n) {
    const Sym t = c.tk(i);
    if (t != sym::For && t != sym::While && t != sym::Do) {
      ++i;
      continue;
    }
    const std::size_t start = i;
    std::size_t end = i;
    if (t == sym::Do) {
      if (c.tk(i + 1) != sym::LBrace) {
        ++i;
        continue;
      }
      end = c.match_fwd(i + 1, sym::LBrace, sym::RBrace);
      if (c.tk(end + 1) == sym::While && c.tk(end + 2) == sym::LParen)
        end = c.match_fwd(end + 2, sym::LParen, sym::RParen);
    } else {
      if (c.tk(i + 1) != sym::LParen) {
        ++i;
        continue;
      }
      const std::size_t header = c.match_fwd(i + 1, sym::LParen, sym::RParen);
      if (header >= n) break;
      if (c.tk(header + 1) == sym::LBrace)
        end = c.match_fwd(header + 1, sym::LBrace, sym::RBrace);
      else
        end = c.stmt_end(header + 1);
    }
    end = std::min(end, n - 1);
    for (std::size_t k = start; k <= end; ++k) {
      s.loop_start[k] = start;
      s.loop_end[k] = end;
    }
    i = end + 1;
  }
}

/// Matches a definition's (namespace-qualified) class name to a ClassModel
/// key as written in FAT_METHOD_INFO — exact first, then suffix.
const ClassModel* class_of(const SourceModel& model, const std::string& cls) {
  if (cls.empty()) return nullptr;
  if (const ClassModel* cm = model.find_class(cls)) return cm;
  for (const auto& [key, cm] : model.classes) {
    if (key.size() < cls.size() &&
        cls.compare(cls.size() - key.size(), key.size(), key) == 0 &&
        cls[cls.size() - key.size() - 1] == ':')
      return &cm;
    if (cls.size() < key.size() &&
        key.compare(key.size() - cls.size(), cls.size(), cls) == 0 &&
        key[key.size() - cls.size() - 1] == ':')
      return &cm;
  }
  return nullptr;
}

/// A summary with its names spelled out.
FnSummary spelled(const Summary& s, const SymbolTable& st) {
  FnSummary out;
  out.mutates_env = s.mutates_env;
  out.mutates_params = s.mutates_params;
  out.may_throw = s.may_throw;
  out.catches = s.catches;
  for (const Sym w : s.writes) out.writes.insert(st.text(w));
  out.writes_unknown = s.writes_unknown;
  for (const Sym w : s.param_writes) out.param_writes.insert(st.text(w));
  out.param_writes_unknown = s.param_writes_unknown;
  out.write_param_positions = s.write_param_positions;
  out.param_positions_unknown = s.param_positions_unknown;
  return out;
}

/// The summary one round's events add for a definition.
Summary summarize(const std::vector<Event>& events, bool instrumented,
                  bool catches) {
  Summary next;
  for (const Event& ev : events) {
    if (ev.mut && ev.via_param) {
      next.mutates_params = true;
      if (ev.target_unknown) next.param_writes_unknown = true;
      next.param_writes.insert(ev.targets.begin(), ev.targets.end());
      if (ev.via_positions.empty())
        next.param_positions_unknown = true;
      else
        next.write_param_positions.insert(ev.via_positions.begin(),
                                          ev.via_positions.end());
    }
    if (ev.mut && !ev.via_param) {
      next.mutates_env = true;
      if (ev.target_unknown) next.writes_unknown = true;
      next.writes.insert(ev.targets.begin(), ev.targets.end());
    }
    if (ev.thr) next.may_throw = true;
  }
  next.may_throw |= instrumented;  // injection point at wrapper entry
  next.catches = catches;
  return next;
}

}  // namespace

EffectAnalysis analyze_effects(const SourceModel& model) {
  const SymbolTable& st = model.symbols;
  // Pass 5 alias bindings are computed once up front: the alias fixpoint
  // depends only on the token model, not on the effect summaries, so it
  // feeds every effect round without participating in the fixpoint below.
  const std::vector<AliasInfo> aliases = analyze_alias_ids(model);
  std::vector<Scanned> defs(model.functions.size());
  for (std::size_t d = 0; d < defs.size(); ++d) {
    const FunctionDef& def = model.functions[d];
    Scanned& s = defs[d];
    s.def = &def;
    bool has_invoke = false;
    s.body = effective_body(def, st, &has_invoke);
    s.cls = class_of(model, def.class_name);
    s.instrumented = has_invoke || (s.cls != nullptr &&
                                    (s.cls->instrumented.count(def.name) ||
                                     s.cls->statics.count(def.name)));
    s.key = model.keys.of_def[d];
    // The alias pass keys every definition exactly like this one.
    s.alias = &aliases[s.key];
    s.trys = try_regions(TokenCursor(s.body, st));
    loop_intervals(s, st);
    for (std::size_t i = 0; i < def.params.size(); ++i) {
      const Param& p = def.params[i];
      if (p.name.empty()) continue;
      const Sym name = st.find(p.name);
      s.params[name] = !p.is_const && (p.is_ref || p.is_ptr);
      s.param_pos[name] = i;
    }
  }

  // Receiver-typed resolution inputs: which classes own scanned definitions
  // per simple name, and which simple names carry any dynamic-dispatch risk
  // (FAT_POLY registration or either side of an inheritance edge) —
  // narrowing through those could miss an unscanned override.
  std::unordered_map<Sym, std::set<Sym>> def_classes_by_simple;
  for (const Scanned& s : defs)
    if (!s.def->class_name.empty())
      def_classes_by_simple[st.find(simple_of(s.def->class_name))].insert(
          s.def->class_id);
  std::unordered_set<Sym> dispatch_risky;
  for (Sym s = 0; s < model.facts.size(); ++s)
    if (model.has(s, kPolyClass)) dispatch_risky.insert(s);
  for (const auto& [derived, bs] : model.bases) {
    dispatch_risky.insert(derived);
    dispatch_risky.insert(bs.begin(), bs.end());
  }
  // Which instrumented methods a declared type may reach: those of every
  // class whose simple name occurs in the type's text.
  std::unordered_map<Sym, std::set<Sym>> type_methods;
  std::vector<std::pair<std::string, const ClassModel*>> simples;
  for (const auto& [qualified, cm] : model.classes)
    simples.emplace_back(simple_of(qualified), &cm);
  for (const auto& [name, type] : model.declared_types) {
    std::set<Sym>& methods = type_methods[st.find(name)];
    for (const auto& [simple, cm] : simples)
      if (type.find(simple) != std::string::npos)
        for (const std::string& m : cm->instrumented)
          methods.insert(st.find(m));
  }

  // Optimistic interprocedural fixpoint: summary bits start false and the
  // scan is monotone in them, so iteration converges; recursion and sibling
  // calls settle within the depth of the call DAG's SCC structure.  Every
  // scanned definition starts at the bottom (empty) summary, so round 0
  // lookups of not-yet-visited keys — self-recursion, forward references —
  // resolve to "no effects yet" instead of falling into the unknown-call
  // fallback, whose conservative event would stick forever through the
  // monotone merge.  This is the textbook least-fixpoint start.
  std::vector<Summary> by_key(model.keys.text.size());
  std::vector<std::size_t> name_slot(st.size(), npos);
  std::vector<Summary> by_name;
  for (const Scanned& s : defs) {
    std::size_t& slot = name_slot[s.def->name_id];
    if (slot == npos) {
      slot = by_name.size();
      by_name.emplace_back();
    }
  }
  const Ctx ctx{&model,     &by_key,
                &by_name,   &name_slot,
                &def_classes_by_simple,
                &dispatch_risky,
                &type_methods};
  // The cap is a backstop: iteration normally breaks on !changed within a
  // handful of rounds (the call DAG's SCC depth).  It is generous because
  // the seeded (bottom-up) iteration must actually reach its fixpoint to be
  // sound — stopping early would under-approximate.  Each definition keeps
  // the events of the latest round: once a round changes nothing, they are
  // exactly what a scan against the final summaries yields.
  bool converged = false;
  for (int round = 0; round < 50 && !converged; ++round) {
    bool changed = false;
    for (Scanned& s : defs) {
      BodyScan scan(s, ctx);
      scan.run();
      s.events = std::move(scan.events);
      s.catches = scan.catches;
      Summary& cur = by_key[s.key];
      Summary merged = cur;
      merged.join(summarize(s.events, s.instrumented, s.catches));
      if (merged != cur) {
        cur = std::move(merged);
        changed = true;
      }
    }
    for (Summary& n : by_name) n = Summary{};
    for (const Scanned& s : defs)
      by_name[name_slot[s.def->name_id]].join(by_key[s.key]);
    converged = !changed;
  }
  if (!converged) {
    // The cap cut the iteration short: the stored events lag the final
    // summaries, so the verdict needs one more scan.
    for (Scanned& s : defs) {
      BodyScan scan(s, ctx);
      scan.run();
      s.events = std::move(scan.events);
      s.catches = scan.catches;
    }
  }

  // The verdict of every instrumented method, from its first definition.
  std::map<std::pair<const ClassModel*, Sym>, const Scanned*> first_def;
  for (const Scanned& s : defs)
    if (s.cls != nullptr)
      first_def.emplace(std::pair{s.cls, s.def->name_id}, &s);
  EffectAnalysis out;
  for (std::size_t k = 0; k < by_key.size(); ++k)
    out.helpers[model.keys.text[k]] = spelled(by_key[k], st);
  for (const auto& [cls_name, cm] : model.classes) {
    auto add = [&](const std::string& method, bool is_static) {
      EffectSummary es;
      es.class_name = cls_name;
      es.method_name = method;
      es.qualified_name = cls_name + "::" + method;
      es.is_static = is_static;
      auto add_reason = [&es](const char* r) {
        es.write_top = true;
        for (const std::string& have : es.write_top_reasons)
          if (have == r) return;
        es.write_top_reasons.push_back(r);
      };
      auto found = first_def.find({&cm, st.find(method)});
      if (found != first_def.end()) {
        const Scanned& s = *found->second;
        es.scanned = true;
        es.catches = s.catches;
        std::size_t first_mut = std::numeric_limits<std::size_t>::max();
        std::size_t last_thr = 0;
        for (const Event& ev : s.events) {
          if (ev.mut) {
            ++es.mutation_events;
            first_mut = std::min(first_mut, ev.pos);
          }
          if (ev.thr) {
            ++es.throw_events;
            last_thr = std::max(last_thr, ev.pos);
          }
        }
        es.read_only = es.mutation_events == 0;
        es.commit_point_last = es.mutation_events == 0 ||
                               es.throw_events == 0 || last_thr < first_mut;
        // Pre-injection write set (Pass 3 input): a mutation needs rolling
        // back only when some injection point can still fire at or after it
        // (pos <= last_thr; equality covers a single call that both mutates
        // and throws).
        const AliasInfo& ai = *s.alias;
        if (es.throw_events > 0) {
          for (const Event& ev : s.events) {
            if (!ev.mut || ev.pos > last_thr) continue;
            if (ev.via_param) {
              // Writes through parameters riding in the wrapper's
              // FAT_INVOKE_ARGS std::tie are part of the checkpoint root
              // tuple: when every position is tied and the targets are
              // named, the write is restorable like any member write.
              const bool tied =
                  !ev.target_unknown && !ev.via_positions.empty() &&
                  std::includes(ai.tied_positions.begin(),
                                ai.tied_positions.end(),
                                ev.via_positions.begin(),
                                ev.via_positions.end());
              if (!tied) {
                add_reason("parameter-aliased write");
                continue;
              }
            } else if (ev.target_unknown) {
              add_reason("unresolved write target");
              continue;
            }
            for (const Sym t : ev.targets) es.write_names.insert(st.text(t));
          }
        }
        // A receiver escaping via `this` can be written through aliases the
        // event scan never sees.  The alias pass's per-token classification
        // decides; `this` passed only into sinks the interprocedural
        // summaries prove side-effect-free does not escape.
        bool escapes = ai.this_top;
        for (const Sym sink : ai.this_sinks) {
          if (escapes) break;
          const Summary* fs = nullptr;
          auto keyed = [&](Sym cls) {
            const std::size_t k = model.keys.find(cls, sink);
            return k == DefKeys::npos ? nullptr : &by_key[k];
          };
          if (s.def->class_id != sym::Empty) fs = keyed(s.def->class_id);
          if (fs == nullptr) fs = keyed(sym::Empty);
          if (fs == nullptr && name_slot[sink] != npos)
            fs = &by_name[name_slot[sink]];
          if (fs == nullptr || fs->mutates_env || fs->mutates_params)
            escapes = true;
        }
        if (escapes) add_reason("receiver escapes via this");
      }
      out.methods[es.qualified_name] = std::move(es);
    };
    for (const std::string& m : cm.instrumented) add(m, false);
    for (const std::string& m : cm.statics) add(m, true);
  }
  return out;
}

}  // namespace fatomic::analyze
