#include "fatomic/analyze/effects.hpp"

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <limits>

#include "fatomic/analyze/alias.hpp"
#include "fatomic/analyze/tokens.hpp"

namespace fatomic::analyze {

void FnSummary::join(const FnSummary& o) {
  mutates_env |= o.mutates_env;
  mutates_params |= o.mutates_params;
  may_throw |= o.may_throw;
  catches |= o.catches;
  writes.insert(o.writes.begin(), o.writes.end());
  writes_unknown |= o.writes_unknown;
  param_writes.insert(o.param_writes.begin(), o.param_writes.end());
  param_writes_unknown |= o.param_writes_unknown;
  write_param_positions.insert(o.write_param_positions.begin(),
                               o.write_param_positions.end());
  param_positions_unknown |= o.param_positions_unknown;
}

const char* EffectSummary::verdict() const {
  if (!scanned) return "unscanned";
  if (read_only) return "read-only";
  if (commit_point_last) return "commit-point-last";
  return "unproven";
}

namespace {

/// Member calls that never mutate their receiver nor raise (accessors of the
/// standard library and of smart pointers).  Checked only after the
/// instrumented-name and helper-summary lookups, so a subject method that
/// happens to share one of these names keeps its own (stronger) facts.
const std::set<std::string>& pure_member_calls() {
  static const std::set<std::string> p = {
      "get",   "size",   "empty", "begin",  "end",   "cbegin", "cend",
      "rbegin", "rend",  "c_str", "data",   "length", "str",   "what",
  };
  return p;
}

/// std:: functions that mutate nothing even when handed tracked arguments.
const std::set<std::string>& pure_std_calls() {
  static const std::set<std::string> p = {
      "to_string", "stoi",      "max",       "min",  "distance",
      "make_unique", "make_shared", "make_pair", "tie", "isspace",
      "isdigit",  "isalpha",   "isalnum",
  };
  return p;
}

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
  std::vector<std::string> targets;
  bool target_unknown = false;
  /// For via_param events: which of the enclosing function's parameter
  /// positions the write flows through.  Empty means "could not determine"
  /// and poisons the summary's position set (callers fall back to whole
  /// argument-list tracking).
  std::set<std::size_t> via_positions;
};

struct Ctx {
  const SourceModel* model;
  /// Summaries keyed "Class::helper" / free "helper".
  const std::map<std::string, FnSummary>* by_key;
  /// Summaries merged over every definition sharing a simple name — the
  /// sound resolution for calls whose receiver type is unknown.
  const std::map<std::string, FnSummary>* by_name;
  /// Qualified class names of scanned definitions, by simple name — the
  /// candidate set for receiver-typed call resolution.
  const std::map<std::string, std::set<std::string>>* def_classes_by_simple;
  /// Simple class names with any dynamic-dispatch risk (FAT_POLY, or on
  /// either side of an inheritance edge): receiver-typed resolution must
  /// not narrow calls through these, an unscanned override could run.
  const std::set<std::string>* dispatch_risky;
};

/// Scans one function body, producing effect events against the current
/// summary table (see analyze_effects for the fixpoint driving this).
class BodyScan : private TokenCursor {
 public:
  BodyScan(const Tokens& body, const FunctionDef& def,
           const FnAliasInfo& alias, const Ctx& ctx)
      : TokenCursor(body),
        def_(def),
        ctx_(ctx),
        alias_(alias),
        trys_(try_regions(*this)) {
    for (std::size_t i = 0; i < def.params.size(); ++i) {
      const Param& p = def.params[i];
      if (p.name.empty()) continue;
      params_[p.name] = !p.is_const && (p.is_ref || p.is_ptr);
      param_pos_[p.name] = i;
    }
    compute_loops();
  }

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

  Kind classify(const std::string& name) const {
    if (auto it = locals_.find(name); it != locals_.end())
      return it->second.tracked ? Kind::TrackedLocal : Kind::Fresh;
    if (auto it = params_.find(name); it != params_.end())
      return it->second ? Kind::TrackedParam : Kind::SafeParam;
    return Kind::Env;
  }

  /// Is token k a base identifier of an expression (not a member/qualified
  /// name component, not a literal or keyword)?
  bool base_ident_at(std::size_t k, std::size_t from) const {
    const std::string& t = tk(k);
    if (!is_ident(t) || is_number(t) || keywords().count(t)) return false;
    if (k > from) {
      const std::string& prev = tk(k - 1);
      if (prev == "." || prev == "->" || prev == "::") return false;
    }
    if (tk(k + 1) == "::") return false;
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
      auto it = param_pos_.find(tk(k));
      if (it != param_pos_.end()) out.insert(it->second);
    }
    return out;
  }

  /// Does the initializer expression denote freshly owned storage (writes
  /// through the declared pointer cannot reach any caller-visible object)?
  bool expr_fresh(std::size_t b, std::size_t e) const {
    if (b >= e) return true;  // no initializer: default construction
    for (std::size_t k = b; k < e; ++k) {
      const std::string& t = tk(k);
      if (t == "new" || t == "make_unique" || t == "make_shared") return true;
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
    std::string base_name;
    /// Identifier nearest the end of the chain — the immediate receiver of
    /// a member call (`children` in `root_->children.push_back`).  Empty
    /// when the chain ends in a call or index result.
    std::string recv_name;
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
    std::string base;
    bool first = true;
    // A trailing index group makes the *owning* identifier the written
    // target (`buckets_[i] = v` writes buckets_) — unless a call group
    // intervenes, whose result owns the elements instead.
    bool pending_index = false;
    std::ptrdiff_t j = static_cast<std::ptrdiff_t>(end) - 1;
    while (j >= 0) {
      const std::string& t = tk(static_cast<std::size_t>(j));
      if (is_ident(t) && !keywords().count(t) && !is_number(t) && first) {
        c.recv_name = t;
        c.recv_starred = j > 0 && tk(static_cast<std::size_t>(j) - 1) == "*";
        first = false;
      } else if (t != "." && t != "::") {
        if (t == "]" && first && c.recv_name.empty()) pending_index = true;
        first = false;
      }
      if (t == ")" || t == "]") {
        const std::ptrdiff_t open =
            match_back(j, t == ")" ? "(" : "[", t == ")" ? ")" : "]");
        if (open < 0) break;
        if (t == ")") pending_index = false;
        if (t == ")" && open > 0 &&
            ctx_.model->class_names.count(
                tk(static_cast<std::size_t>(open) - 1))) {
          // `Parser(src).parse_document()` — the receiver is a freshly
          // constructed temporary; mutations through it never reach the
          // caller.
          c.base = Kind::Fresh;
          return c;
        }
        if (t == "]") c.deref = true;
        j = open - 1;
        continue;
      }
      if (t == "this") {
        // `*this = other` / `(*this).x = v`: the receiver itself is the
        // base.  `this` classifies as Env (never a local or parameter).
        base = t;
        --j;
        continue;
      }
      if (is_ident(t) && !keywords().count(t) && !is_number(t)) {
        if (pending_index && c.recv_name.empty()) {
          c.recv_name = t;
          c.recv_starred =
              j > 0 && tk(static_cast<std::size_t>(j) - 1) == "*";
          pending_index = false;
        }
        base = t;
        --j;
        continue;
      }
      if (t == "." || t == "::") {
        if (t == ".") ++c.hops;
        --j;
        continue;
      }
      if (t == "->" || t == "*") {
        c.deref = true;
        if (t == "->") ++c.hops;
        --j;
        continue;
      }
      break;
    }
    if (!base.empty()) {
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
    while (k < size() && (tk(k) == "*" || tk(k) == "(")) {
      if (tk(k) == "*") {
        c.deref = true;
        leading_star = true;
      }
      ++k;
    }
    std::string base;
    while (k < size()) {
      const std::string& t = tk(k);
      if (t == "this") {  // `++this->count_`: the receiver is the base
        if (base.empty()) base = t;
        ++k;
        continue;
      }
      if (is_ident(t) && !keywords().count(t) && !is_number(t)) {
        if (base.empty()) base = t;
        c.recv_name = t;  // last identifier wins: the written member
        ++k;
        continue;
      }
      if (t == "." || t == "::") {
        if (t == ".") {
          leading_star = false;  // star applied to an earlier link
          ++c.hops;
        }
        ++k;
        continue;
      }
      if (t == "->") {
        c.deref = true;
        leading_star = false;
        ++c.hops;
        ++k;
        continue;
      }
      break;
    }
    if (!base.empty()) {
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
      auto it = param_pos_.find(c.base_name);
      if (it != param_pos_.end()) out.insert(it->second);
    }
    return out;
  }

  /// Caller-side write targets for an argument expression: when [b, e) is a
  /// pure member chain (`head_`, `other.head_`), the written state lives
  /// inside that named subtree.  A bare tracked local resolves through its
  /// alias binding when that names a receiver subtree (Pass 5); calls,
  /// indexing, dereferences, and unresolved locals yield no usable target.
  std::pair<std::vector<std::string>, bool> arg_target(std::size_t b,
                                                       std::size_t e) const {
    for (std::size_t k = b; k < e; ++k) {
      const std::string& t = tk(k);
      if (t == "." || t == "->" || t == "::") continue;
      if (!is_ident(t) || keywords().count(t) || is_number(t))
        return {{}, false};
    }
    const Chain c = chain_before(e);
    if (c.recv_name.empty() || c.recv_starred) return {{}, false};
    if (locals_.count(c.recv_name)) {
      if (c.recv_name == c.base_name) {
        auto it = alias_.locals.find(c.base_name);
        if (it != alias_.locals.end() &&
            it->second.kind == AliasTarget::Kind::Field &&
            !it->second.roots.empty())
          return {{it->second.roots.begin(), it->second.roots.end()}, true};
      }
      return {{}, false};
    }
    return {{c.recv_name}, true};
  }

  void compute_loops();

  void emit(std::size_t pos, bool mut, bool thr, bool via_param,
            std::vector<std::string> targets = {}, bool target_unknown = true,
            std::set<std::size_t> via_positions = {});
  /// Mutation with at most one named target; `target_valid` is false when
  /// the name does not denote the written member (starred/empty chains).
  void emit_mut(std::size_t pos, Kind base, const std::string& target = "",
                bool target_valid = false,
                std::set<std::size_t> via_positions = {}) {
    const bool named = target_valid && !target.empty();
    emit(pos, true, false, base == Kind::TrackedParam,
         named ? std::vector<std::string>{target} : std::vector<std::string>{},
         !named, std::move(via_positions));
  }
  /// Mutation whose targets come from a callee summary's write-name set.
  void emit_mut_set(std::size_t pos, Kind base,
                    const std::set<std::string>& names, bool unknown,
                    std::set<std::size_t> via_positions = {}) {
    emit(pos, true, false, base == Kind::TrackedParam,
         std::vector<std::string>(names.begin(), names.end()), unknown,
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
    const AliasTarget* t = it == alias_.locals.end() ? nullptr : &it->second;
    const bool deeper = !c.recv_name.empty() && !c.recv_starred &&
                        c.recv_name != c.base_name;
    if (t == nullptr || t->kind == AliasTarget::Kind::Top) {
      emit_mut(pos, Kind::Env, deeper ? c.recv_name : "", deeper);
      return;
    }
    if (t->kind == AliasTarget::Kind::Local) {
      // Frame-local storage: droppable only while the write stays in the
      // object's own slots (`n->f = v`).  A second member hop re-enters
      // whatever those slots point at — a ctor frame may have stashed a
      // receiver subtree there (`Wrap w(head_); w.p->value = v`) — so the
      // write falls back to the named-environment path.
      if (c.hops <= 1) return;
      emit_mut(pos, Kind::Env, deeper ? c.recv_name : "", deeper);
      return;
    }
    std::vector<std::string> targets;
    if (deeper)
      targets.push_back(c.recv_name);
    else
      targets.assign(t->roots.begin(), t->roots.end());
    const bool unknown = targets.empty();
    emit(pos, true, false, t->kind == AliasTarget::Kind::Param,
         std::move(targets), unknown,
         t->kind == AliasTarget::Kind::Param ? t->positions
                                             : std::set<std::size_t>{});
  }

  bool local_is_ref(const std::string& name) const {
    auto it = locals_.find(name);
    return it != locals_.end() && it->second.is_ref;
  }

  /// Param-mutation events for a call to a summarized callee.  When the
  /// callee's written parameter positions are known, only the argument
  /// expressions at those positions are re-evaluated (and the argument
  /// chain itself names the written subtree); otherwise any tracked
  /// argument anywhere in the list counts, with the callee's own write
  /// names.
  void emit_param_writes(std::size_t i, std::size_t close, const FnSummary& s);
  /// Mutation events for a library call that may write through any tracked
  /// argument (std::move, generic algorithms, unknown member calls' args).
  void tracked_args_mut(std::size_t i, std::size_t close);

  const FnSummary* lookup_key(const std::string& key) const {
    auto it = ctx_.by_key->find(key);
    return it == ctx_.by_key->end() ? nullptr : &it->second;
  }
  const FnSummary* lookup_name(const std::string& name) const {
    auto it = ctx_.by_name->find(name);
    return it == ctx_.by_name->end() ? nullptr : &it->second;
  }

  /// Pass 4 receiver-typed call resolution: when the receiver's declared
  /// type names specific scanned classes — none of them dispatch-risky —
  /// the call can only reach those classes' definitions, so exactly their
  /// by-key summaries merge (instead of the by-name union over every class
  /// sharing the method name).  Fails (returns false) whenever the
  /// receiver, its declared type, or any named class is unknown: callers
  /// keep the conservative resolution.
  bool receiver_summary(const Chain& recv, const std::string& method,
                        FnSummary* out) const;

  void handle_call(std::size_t i);
  bool try_decl(std::size_t i, std::size_t& next);
  bool try_lambda(std::size_t i, std::size_t& next);

  /// True when the immediate receiver is a declared member or variable
  /// whose type mentions none of the classes instrumenting `method` — e.g.
  /// `head_.reset()` where head_ is a unique_ptr and only Regexp instruments
  /// a `reset`.  Unknown receivers and unknown declared types keep the
  /// conservative answer (false: treat the call as an injection point).
  bool field_rules_out_instrumented(const std::string& recv_name,
                                    const std::string& method) const {
    if (recv_name.empty()) return false;
    auto ft = ctx_.model->declared_types.find(recv_name);
    if (ft == ctx_.model->declared_types.end()) return false;
    const std::string& type = ft->second;
    for (const auto& [qualified, cm] : ctx_.model->classes)
      if (cm.instrumented.count(method) &&
          type.find(simple_of(qualified)) != std::string::npos)
        return false;
    return true;
  }

  const FunctionDef& def_;
  const Ctx& ctx_;
  /// Pass 5 alias bindings for this definition: writes through tracked
  /// locals resolve to the receiver subtree (or parameter position) the
  /// local aliases instead of collapsing to an unresolved environment write.
  const FnAliasInfo& alias_;
  std::map<std::string, Var> locals_;
  std::map<std::string, bool> params_;  ///< name -> tracked
  std::map<std::string, std::size_t> param_pos_;
  /// The body's try statements, for catch-clause-aware throw suppression.
  std::vector<TryRegion> trys_;
  /// Simple type name of the explicit `throw` currently being emitted
  /// (empty otherwise): lets emit() consult typed catch handlers.
  std::string throw_hint_;
  /// Outermost loop interval covering each token, or npos.
  std::vector<std::size_t> loop_start_, loop_end_;

  static constexpr std::size_t npos = std::numeric_limits<std::size_t>::max();
};

void BodyScan::compute_loops() {
  loop_start_.assign(size(), npos);
  loop_end_.assign(size(), npos);
  std::size_t i = 0;
  while (i < size()) {
    const std::string& t = tk(i);
    if (t != "for" && t != "while" && t != "do") {
      ++i;
      continue;
    }
    const std::size_t start = i;
    std::size_t end = i;
    if (t == "do") {
      if (tk(i + 1) != "{") {
        ++i;
        continue;
      }
      end = match_fwd(i + 1, "{", "}");
      if (tk(end + 1) == "while" && tk(end + 2) == "(")
        end = match_fwd(end + 2, "(", ")");
    } else {
      if (tk(i + 1) != "(") {
        ++i;
        continue;
      }
      const std::size_t header = match_fwd(i + 1, "(", ")");
      if (header >= size()) break;
      if (tk(header + 1) == "{")
        end = match_fwd(header + 1, "{", "}");
      else
        end = stmt_end(header + 1);
    }
    end = std::min(end, size() - 1);
    for (std::size_t k = start; k <= end; ++k) {
      loop_start_[k] = start;
      loop_end_[k] = end;
    }
    i = end + 1;
  }
}

void BodyScan::emit(std::size_t pos, bool mut, bool thr, bool via_param,
                    std::vector<std::string> targets, bool target_unknown,
                    std::set<std::size_t> via_positions) {
  // Catch-clause-aware suppression (Pass 4): a throw that provably cannot
  // leave the function is no injection-ordering constraint for callers.
  // The decision uses the original position — loop widening never moves an
  // event across the braces of a try block that contains the loop.
  if (thr && !escapes(trys_, *ctx_.model, pos, throw_hint_))
    thr = false;
  if (mut) {
    Event ev;
    ev.pos = pos < loop_start_.size() && loop_start_[pos] != npos
                 ? loop_start_[pos]
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
    ev.pos =
        pos < loop_end_.size() && loop_end_[pos] != npos ? loop_end_[pos] : pos;
    ev.thr = true;
    events.push_back(std::move(ev));
  }
}

void BodyScan::emit_param_writes(std::size_t i, std::size_t close,
                                 const FnSummary& s) {
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
             tvalid ? std::move(tnames) : std::vector<std::string>{}, !tvalid,
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
         tvalid ? std::move(tnames) : std::vector<std::string>{}, !tvalid,
         arg_param_only ? expr_positions(b, e) : std::set<std::size_t>{});
  }
}

bool BodyScan::receiver_summary(const Chain& recv, const std::string& method,
                                FnSummary* out) const {
  if (recv.recv_name.empty() || recv.recv_starred) return false;
  auto ft = ctx_.model->declared_types.find(recv.recv_name);
  if (ft == ctx_.model->declared_types.end()) return false;
  const std::string& type = ft->second;
  // Exact ident-word scan of the merged declared type (substring matching
  // would confuse LinkedList with LinkedListFixed).
  std::set<std::string> words;
  std::string w;
  for (char c : type) {
    if (std::isalnum(static_cast<unsigned char>(c)) || c == '_') {
      w.push_back(c);
    } else if (!w.empty()) {
      words.insert(w);
      w.clear();
    }
  }
  if (!w.empty()) words.insert(w);
  FnSummary merged;
  bool any = false;
  for (const std::string& word : words) {
    auto cit = ctx_.def_classes_by_simple->find(word);
    if (cit == ctx_.def_classes_by_simple->end()) continue;
    if (ctx_.dispatch_risky->count(word)) return false;
    for (const std::string& qualified : cit->second) {
      const FnSummary* s = lookup_key(qualified + "::" + method);
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
  const std::string& name = tk(i);
  const std::string prev = i > 0 ? tk(i - 1) : "";
  const std::size_t close = match_fwd(i + 1, "(", ")");
  const auto [args_tracked, args_param_only] = expr_state(i + 2, close);

  if (name.rfind("FAT_", 0) == 0) return;

  if (prev == "::") {
    // Qualified call: either the standard library or a scanned namespace.
    if (leading_qualifier(i) == "std") {
      if (name == "move" || name == "forward") {
        // Move-steal: the argument's guts are gone afterwards — a write to
        // exactly the moved-from chain.
        tracked_args_mut(i, close);
        return;
      }
      if (pure_std_calls().count(name)) return;
      // Generic algorithm: may mutate through whatever it was handed, but
      // contains no injection point (the fault model injects only at
      // instrumented methods — DESIGN.md §7).
      tracked_args_mut(i, close);
      return;
    }
    if (const FnSummary* s = lookup_name(name)) {
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

  if (prev == "." || prev == "->") {
    // Member call: resolve the receiver chain ending before the separator.
    const Chain recv = chain_before(i - 1);
    const bool recv_tracked = tracked(recv.base);
    const Kind recv_kind =
        recv.base == Kind::TrackedParam ? Kind::TrackedParam : Kind::Env;
    // Zero-argument accessor check first: `head_.get()` must not resolve to
    // the instrumented HashedMap::get — every instrumented method sharing a
    // whitelisted name takes arguments, so arity disambiguates.
    if (close == i + 2 && pure_member_calls().count(name)) return;
    if (ctx_.model->instrumented_names.count(name)) {
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
      FnSummary rs;
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
      const FnSummary* s = lookup_name(name);
      if (recv_tracked && s != nullptr && s->mutates_env)
        emit_mut_set(i, recv_kind, s->writes, s->writes_unknown,
                     chain_positions(recv));
      emit(i, false, true, false);
      return;
    }
    FnSummary rs;
    if (receiver_summary(recv, name, &rs)) {
      if (rs.mutates_env && recv_tracked)
        emit_mut_set(i, recv_kind, rs.writes, rs.writes_unknown,
                     chain_positions(recv));
      emit_param_writes(i, close, rs);
      emit(i, false, rs.may_throw, false);
      return;
    }
    if (const FnSummary* s = lookup_name(name)) {
      if (s->mutates_env && recv_tracked)
        emit_mut_set(i, recv_kind, s->writes, s->writes_unknown,
                     chain_positions(recv));
      emit_param_writes(i, close, *s);
      emit(i, false, s->may_throw, false);
      return;
    }
    if (pure_member_calls().count(name) ||
        ctx_.model->clean_const_names.count(name))
      return;
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
  if (ctx_.model->instrumented_names.count(name)) {
    // An unqualified call from a member function resolves to the same
    // class's member when one exists — its exact by-key summary beats the
    // by-name union over every class sharing the (instrumented) name.
    const FnSummary* s = nullptr;
    if (!def_.class_name.empty())
      s = lookup_key(def_.class_name + "::" + name);
    if (s == nullptr) s = lookup_name(name);
    if (s != nullptr && s->mutates_env)
      emit_mut_set(i, Kind::Env, s->writes, s->writes_unknown);
    if (s != nullptr) emit_param_writes(i, close, *s);
    emit(i, false, true, false);
    return;
  }
  const FnSummary* s = nullptr;
  if (!def_.class_name.empty()) s = lookup_key(def_.class_name + "::" + name);
  if (s == nullptr) s = lookup_key(name);
  if (s == nullptr) s = lookup_name(name);
  if (s != nullptr) {
    if (s->mutates_env)
      emit_mut_set(i, Kind::Env, s->writes, s->writes_unknown);
    emit_param_writes(i, close, *s);
    emit(i, false, s->may_throw, false);
    return;
  }
  if (ctx_.model->clean_const_names.count(name)) return;
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
    for (const std::string& n : d->names)
      locals_[n] = Var{track, !d->is_ref, d->is_ref};
    next = d->end + 1;
    return true;
  }
  const bool init = tk(d->end) == "=";
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
  const std::string prevt = i > 0 ? tk(i - 1) : ";";
  // Expression position only: after an identifier, `)`, or `]` the bracket
  // is an index, not a lambda introducer.
  if (is_ident(prevt) || is_number(prevt) || prevt == ")" || prevt == "]")
    return false;
  const std::size_t cb = match_fwd(i, "[", "]");
  if (cb >= size() || tk(cb + 1) != "(") return false;
  const std::size_t pc = match_fwd(cb + 1, "(", ")");
  if (pc >= size()) return false;
  for (const auto& [b, e] : split_args(cb + 1, pc)) {
    bool by_ref = false;
    std::string last_ident;
    for (std::size_t k = b; k < e; ++k) {
      const std::string& t = tk(k);
      if (t == "&" || t == "&&" || t == "*") by_ref = true;
      if (is_ident(t) && !keywords().count(t) && !is_number(t)) last_ident = t;
    }
    if (!by_ref && !last_ident.empty())
      locals_[last_ident] = Var{false, true};
  }
  next = pc + 1;
  return true;
}

void BodyScan::run() {
  bool stmt_start = true;
  std::size_t i = 0;
  while (i < size()) {
    const std::string& t = tk(i);
    if (t == ";" || t == "{" || t == "}") {
      stmt_start = true;
      ++i;
      continue;
    }
    if (t == "(") {
      stmt_start = true;  // for-init / if-declaration positions
      ++i;
      continue;
    }
    if (t == "[") {
      std::size_t next = i;
      if (try_lambda(i, next)) {
        i = next;
        continue;
      }
      ++i;
      continue;
    }
    if (t == "throw") {
      // The thrown expression's constructor runs before anything can have
      // been mutated by it; suppress its call events.  A statically known
      // thrown type lets typed catch handlers of enclosing try blocks stop
      // the propagation; a bare `throw;` or a rethrown variable keeps the
      // unknown type.
      throw_hint_ = thrown_type(*this, i, *ctx_.model);
      emit(i, false, true, false);
      throw_hint_.clear();
      i = stmt_end(i) + 1;
      stmt_start = true;
      continue;
    }
    if (t == "catch") {
      catches = true;
      ++i;
      continue;
    }
    if (t == "delete") {
      const Chain c = chain_after(i + 1 < size() && tk(i + 1) == "["
                                      ? i + 3
                                      : i + 1);
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
    if (stmt_start && is_ident(t)) {
      std::size_t next = i;
      if (try_decl(i, next)) {
        stmt_start = false;
        i = next;
        continue;
      }
    }
    stmt_start = false;
    if (is_ident(t) && !keywords().count(t) && !is_number(t)) {
      if (tk(i + 1) == "(") handle_call(i);
      ++i;
      continue;
    }
    if (t == "=" || t == "+=" || t == "-=" || t == "*=" || t == "/=" ||
        t == "%=" || t == "&=" || t == "|=" || t == "^=" || t == "<<=" ||
        t == ">>=") {
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
      } else if (t == "=" &&
                 (c.base == Kind::Fresh || c.base == Kind::TrackedLocal)) {
        // Reassigning a local pointer: its freshness follows the new value.
        std::ptrdiff_t j = static_cast<std::ptrdiff_t>(i) - 1;
        while (j >= 0 && !is_ident(tk(static_cast<std::size_t>(j)))) --j;
        if (j >= 0) {
          auto it = locals_.find(tk(static_cast<std::size_t>(j)));
          if (it != locals_.end() && !it->second.value_type)
            it->second.tracked = !expr_fresh(i + 1, stmt_end(i));
        }
      }
      ++i;
      continue;
    }
    if (t == "++" || t == "--") {
      const std::string& nxt = tk(i + 1);
      const Chain c = (is_ident(nxt) || nxt == "(" || nxt == "*")
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
    if (t == "<<" || t == ">>") {
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
Tokens effective_body(const FunctionDef& def, bool* instrumented_macro) {
  *instrumented_macro = false;
  const TokenCursor c(def.body);
  for (std::size_t i = 0; i < c.size(); ++i) {
    if (c.tk(i).rfind("FAT_INVOKE", 0) != 0) continue;
    std::size_t open = i + 1;
    while (open < c.size() && c.tk(open) != "{") ++open;
    if (open >= c.size()) continue;
    const std::size_t close = c.match_fwd(open, "{", "}");
    if (close >= c.size()) return def.body;
    *instrumented_macro = true;
    return Tokens(def.body.begin() + static_cast<std::ptrdiff_t>(open) + 1,
                  def.body.begin() + static_cast<std::ptrdiff_t>(close));
  }
  return def.body;
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

}  // namespace

EffectAnalysis analyze_effects(const SourceModel& model) {
  // Pass 5 alias bindings are computed once up front: the alias fixpoint
  // depends only on the token model, not on the effect summaries, so it
  // feeds every effect round without participating in the fixpoint below.
  const AliasAnalysis aliases = analyze_aliases(model);
  struct Scanned {
    const FunctionDef* def;
    Tokens body;  ///< effective body (invoke lambda for instrumented defs)
    std::string key;
    bool instrumented = false;
    /// Pass 5 bindings of this definition.  The alias pass keys every
    /// definition exactly like `key`, so the lookup cannot miss.
    const FnAliasInfo* alias = nullptr;
  };
  std::vector<Scanned> defs;
  for (const FunctionDef& def : model.functions) {
    Scanned s;
    s.def = &def;
    bool has_invoke = false;
    s.body = effective_body(def, &has_invoke);
    const ClassModel* cm = class_of(model, def.class_name);
    s.instrumented = has_invoke ||
                     (cm != nullptr && (cm->instrumented.count(def.name) ||
                                        cm->statics.count(def.name)));
    s.key = def.class_name.empty() ? def.name
                                   : def.class_name + "::" + def.name;
    s.alias = &aliases.by_key.at(s.key);
    defs.push_back(std::move(s));
  }

  // Receiver-typed resolution inputs: which qualified classes own scanned
  // definitions per simple name, and which simple names carry any dynamic-
  // dispatch risk (FAT_POLY registration or either side of an inheritance
  // edge) — narrowing through those could miss an unscanned override.
  std::map<std::string, std::set<std::string>> def_classes_by_simple;
  for (const Scanned& s : defs)
    if (!s.def->class_name.empty())
      def_classes_by_simple[simple_of(s.def->class_name)].insert(
          s.def->class_name);
  std::set<std::string> dispatch_risky;
  for (const std::string& q : model.poly_classes)
    dispatch_risky.insert(simple_of(q));
  for (const auto& [derived, bs] : model.bases) {
    dispatch_risky.insert(derived);
    for (const std::string& b : bs) dispatch_risky.insert(simple_of(b));
  }

  // Optimistic interprocedural fixpoint: summary bits start false and the
  // scan is monotone in them, so iteration converges; recursion and sibling
  // calls settle within the depth of the call DAG's SCC structure.
  std::map<std::string, FnSummary> by_key, by_name;
  const Ctx ctx{&model, &by_key, &by_name, &def_classes_by_simple,
                &dispatch_risky};
  // Seed every scanned definition with the bottom (empty) summary so round
  // 0 lookups of not-yet-visited keys — self-recursion, forward references
  // — resolve to "no effects yet" instead of falling into the unknown-call
  // fallback, whose conservative event would stick forever through the
  // monotone merge.  This is the textbook least-fixpoint start.
  for (const Scanned& s : defs) {
    by_key[s.key];
    by_name[s.def->name];
  }
  // The cap is a backstop: iteration normally breaks on !changed within a
  // handful of rounds (the call DAG's SCC depth).  It is generous because
  // the seeded (bottom-up) iteration must actually reach its fixpoint to be
  // sound — stopping early would under-approximate.
  for (int round = 0; round < 50; ++round) {
    bool changed = false;
    for (const Scanned& s : defs) {
      BodyScan scan(s.body, *s.def, *s.alias, ctx);
      scan.run();
      FnSummary next;
      for (const Event& ev : scan.events) {
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
      next.may_throw |= s.instrumented;  // injection point at wrapper entry
      next.catches = scan.catches;
      FnSummary& cur = by_key[s.key];
      FnSummary merged = cur;
      merged.join(next);
      if (merged != cur) {
        cur = std::move(merged);
        changed = true;
      }
    }
    by_name.clear();
    for (const Scanned& s : defs) by_name[s.def->name].join(by_key[s.key]);
    if (!changed) break;
  }

  // Final positioned pass over every instrumented method: the verdict.
  EffectAnalysis out;
  out.helpers = by_key;
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
      for (const Scanned& s : defs) {
        if (s.def->name != method) continue;
        if (class_of(model, s.def->class_name) != &cm) continue;
        BodyScan scan(s.body, *s.def, *s.alias, ctx);
        scan.run();
        es.scanned = true;
        es.catches = scan.catches;
        std::size_t first_mut = std::numeric_limits<std::size_t>::max();
        std::size_t last_thr = 0;
        for (const Event& ev : scan.events) {
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
        const FnAliasInfo& ai = *s.alias;
        if (es.throw_events > 0) {
          for (const Event& ev : scan.events) {
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
              if (tied)
                es.write_names.insert(ev.targets.begin(), ev.targets.end());
              else
                add_reason("parameter-aliased write");
            } else if (ev.target_unknown) {
              add_reason("unresolved write target");
            } else {
              es.write_names.insert(ev.targets.begin(), ev.targets.end());
            }
          }
        }
        // A receiver escaping via `this` can be written through aliases the
        // event scan never sees.  The alias pass's per-token classification
        // decides; `this` passed only into sinks the interprocedural
        // summaries prove side-effect-free does not escape.
        bool escapes = ai.this_top;
        for (const std::string& sink : ai.this_sinks) {
          if (escapes) break;
          const FnSummary* fs = nullptr;
          if (!s.def->class_name.empty()) {
            auto it = by_key.find(s.def->class_name + "::" + sink);
            if (it != by_key.end()) fs = &it->second;
          }
          if (fs == nullptr) {
            auto it = by_key.find(sink);
            if (it != by_key.end()) fs = &it->second;
          }
          if (fs == nullptr) {
            auto it = by_name.find(sink);
            if (it != by_name.end()) fs = &it->second;
          }
          if (fs == nullptr || fs->mutates_env || fs->mutates_params)
            escapes = true;
        }
        if (escapes) add_reason("receiver escapes via this");
        break;
      }
      out.methods[es.qualified_name] = std::move(es);
    };
    for (const std::string& m : cm.instrumented) add(m, false);
    for (const std::string& m : cm.statics) add(m, true);
  }
  return out;
}

}  // namespace fatomic::analyze
