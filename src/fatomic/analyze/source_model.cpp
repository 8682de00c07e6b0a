#include "fatomic/analyze/source_model.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "fatomic/analyze/tokens.hpp"

namespace fatomic::analyze {

namespace {

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// The operator `rest` starts with: the longest multi-character operator
/// that matches, else its first character.
std::string_view operator_at(std::string_view rest) {
  static constexpr std::string_view kOps[] = {
      "<<=", ">>=", "->*", "...", "::", "->", "++", "--", "<<", ">>", "<=",
      ">=",  "==",  "!=",  "&&",  "||", "+=", "-=", "*=", "/=", "%=", "&=",
      "|=",  "^="};
  // Every multi-character operator continues with one of these.
  if (rest.size() > 1 &&
      std::string_view("<>.:+-&|=").find(rest[1]) != std::string_view::npos)
    for (const std::string_view op : kOps)
      if (rest.starts_with(op)) return op;
  return rest.substr(0, 1);
}

}  // namespace

Tokens tokenize(const std::string& src, SymbolTable& symbols) {
  Tokens out;
  const std::size_t n = src.size();
  std::size_t i = 0;
  auto at = [&](std::size_t k) { return k < n ? src[k] : '\0'; };
  auto alnum = [&](std::size_t k) {
    return std::isalnum(static_cast<unsigned char>(at(k))) != 0;
  };
  while (i < n) {
    const char c = src[i];
    if (c == '\\' && at(i + 1) == '\n') {
      i += 2;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (c == '/' && at(i + 1) == '/') {
      while (i < n && src[i] != '\n') ++i;
      continue;
    }
    if (c == '/' && at(i + 1) == '*') {
      i += 2;
      while (i + 1 < n && !(src[i] == '*' && src[i + 1] == '/')) ++i;
      i = std::min(n, i + 2);
      continue;
    }
    if (c == '#') {  // preprocessor directive, possibly line-continued
      while (i < n && src[i] != '\n') {
        if (src[i] == '\\' && at(i + 1) == '\n') ++i;
        ++i;
      }
      continue;
    }
    // An encoding prefix (u8, u, U, L) belongs to the literal it introduces.
    std::size_t lit = c == 'u' && at(i + 1) == '8'          ? i + 2
                      : c == 'u' || c == 'U' || c == 'L' ? i + 1
                                                          : i;
    const bool raw = at(lit) == 'R' && at(lit + 1) == '"';
    if (!raw && at(lit) != '"' && at(lit) != '\'') lit = i;
    if (raw) {  // raw string literal
      std::size_t j = lit + 2;
      std::string delim;
      while (j < n && src[j] != '(') delim.push_back(src[j++]);
      const std::string closer = ")" + delim + "\"";
      const std::size_t end = src.find(closer, j);
      i = end == std::string::npos ? n : end + closer.size();
      out.push_back(sym::StringLit);
      continue;
    }
    if (at(lit) == '"' || at(lit) == '\'') {
      const char quote = at(lit);
      i = lit + 1;
      while (i < n && src[i] != quote) {
        if (src[i] == '\\') ++i;
        ++i;
      }
      ++i;
      out.push_back(quote == '"' ? sym::StringLit : sym::CharLit);
      continue;
    }
    if (ident_char(c)) {
      // A numeric literal runs on across a digit separator (`1'000`).
      const bool numeric = std::isdigit(static_cast<unsigned char>(c)) != 0;
      std::size_t j = i;
      while (j < n && (ident_char(src[j]) ||
                       (numeric && src[j] == '\'' && alnum(j - 1) &&
                        alnum(j + 1))))
        ++j;
      out.push_back(symbols.intern(std::string_view(src).substr(i, j - i)));
      i = j;
      continue;
    }
    const std::string_view op = operator_at(std::string_view(src).substr(i));
    out.push_back(symbols.intern(op));
    i += op.size();
  }
  return out;
}

namespace {

/// Joins identifier/"::" tokens starting at `i` into a qualified name;
/// advances `i` past them.  `simple`, when given, receives the last
/// identifier.
std::string read_qualified(const TokenCursor& c, std::size_t& i,
                           Sym* simple = nullptr) {
  std::string name;
  for (; c.ident(i) || c.tk(i) == sym::Scope; ++i) {
    name += c.symbols().text(c.tk(i));
    if (simple != nullptr && c.ident(i)) *simple = c.tk(i);
  }
  return name;
}

void add_fact(SourceModel& model, Sym s, NameFact f) {
  if (s != sym::Empty) model.facts[s] |= f;
}

/// FAT_METHOD_INFO / FAT_STATIC_INFO / FAT_CTOR_INFO / FAT_REFLECT harvester.
void harvest_macros(const Tokens& t, SourceModel& model) {
  const TokenCursor c(t, model.symbols);
  const SymbolTable& st = model.symbols;
  for (std::size_t i = 0; i + 1 < c.size(); ++i) {
    const Sym m = c.tk(i);
    const bool method = m == sym::FatMethodInfo;
    const bool stat = m == sym::FatStaticInfo;
    const bool ctor = m == sym::FatCtorInfo;
    const bool reflect = m == sym::FatReflect || m == sym::FatReflectEmpty;
    const bool poly = m == sym::FatPoly;
    if (!(method || stat || ctor || reflect || poly) ||
        c.tk(i + 1) != sym::LParen)
      continue;
    const std::size_t close = c.match_fwd(i + 1, sym::LParen, sym::RParen);
    if (close >= c.size()) continue;
    std::size_t k = i + 2;
    Sym simple = sym::Empty;
    const std::string cls = read_qualified(c, k, &simple);
    if (cls.empty()) continue;
    if (poly) {
      // FAT_POLY(Base, Derived): both ends are polymorphic types.
      add_fact(model, simple, kPolyClass);
      if (k < close && c.tk(k) == sym::Comma) {
        ++k;
        Sym derived = sym::Empty;
        read_qualified(c, k, &derived);
        add_fact(model, derived, kPolyClass);
      }
      i = close;
      continue;
    }
    ClassModel& cm = model.classes[cls];
    cm.qualified_name = cls;
    if (reflect) {
      cm.reflected = true;
      for (; k < close; ++k) {
        if (c.tk(k) != sym::FatField && c.tk(k) != sym::FatOwned) continue;
        // FAT_FIELD(Class, field) / FAT_OWNED(Class, field)
        std::size_t f = k + 2;
        (void)read_qualified(c, f);  // class
        if (f < close && c.tk(f) == sym::Comma) {
          ++f;
          if (f < close && c.ident(f)) cm.fields.insert(st.text(c.tk(f)));
        }
      }
    } else if (ctor) {
      cm.has_ctor_info = true;
    } else {
      if (k >= close || c.tk(k) != sym::Comma) continue;
      ++k;
      if (k >= close || !c.ident(k)) continue;
      const std::string& name = st.text(c.tk(k));
      (stat ? cm.statics : cm.instrumented).insert(name);
      if (!stat) add_fact(model, c.tk(k), kInstrumentedName);
      auto& throws = cm.declared_throws[name];
      for (++k; k < close; ++k) {
        if (c.tk(k) != sym::FatThrows || c.tk(k + 1) != sym::LParen) continue;
        std::size_t e = k + 2;
        const std::string type = read_qualified(c, e);
        if (!type.empty()) throws.push_back(type);
        k = e;
      }
    }
    i = close;
  }
}

/// Collects names of inline const methods whose bodies are verifiably
/// effect-free: `name(...) const { body }` where body contains no `throw`,
/// no FAT_ macro, and no call to an instrumented method name.
void harvest_clean_const(const Tokens& t, SourceModel& model) {
  const TokenCursor c(t, model.symbols);
  for (std::size_t i = 2; i + 1 < c.size(); ++i) {
    if (c.tk(i) != sym::Const || c.tk(i - 1) != sym::RParen ||
        c.tk(i + 1) != sym::LBrace)
      continue;
    const std::ptrdiff_t open = c.match_back(
        static_cast<std::ptrdiff_t>(i) - 1, sym::LParen, sym::RParen);
    if (open <= 0) continue;
    const Sym name = c.tk(static_cast<std::size_t>(open) - 1);
    if (!model.symbols.word(name)) continue;
    const std::size_t end = c.match_fwd(i + 1, sym::LBrace, sym::RBrace);
    if (end >= c.size()) continue;
    bool clean = true;
    for (std::size_t k = i + 2; k < end; ++k) {
      const Sym b = c.tk(k);
      if (b == sym::Throw || c.has(k, kMacro) ||
          (model.has(b, kInstrumentedName) && c.tk(k + 1) == sym::LParen)) {
        clean = false;
        break;
      }
    }
    if (clean) add_fact(model, name, kCleanConstName);
  }
}

/// Records the simple name of every class/struct declaration (including
/// forward declarations — a name is a name), every enum name, and the base
/// clauses' inheritance edges.
void harvest_class_names(const Tokens& t, SourceModel& model) {
  const TokenCursor c(t, model.symbols);
  const SymbolTable& st = model.symbols;
  for (std::size_t i = 0; i + 1 < c.size(); ++i) {
    if (c.tk(i) == sym::Enum) {
      // `enum X` / `enum class X` / `enum struct X`.
      std::size_t k = i + 1;
      if (c.tk(k) == sym::Class || c.tk(k) == sym::Struct) ++k;
      if (c.word(k)) add_fact(model, c.tk(k), kEnumName);
      continue;
    }
    if (c.tk(i) != sym::Class && c.tk(i) != sym::Struct) continue;
    if (i > 0 && c.tk(i - 1) == sym::Enum) continue;
    const Sym cls = c.tk(i + 1);
    if (!st.word(cls)) continue;
    add_fact(model, cls, kClassName);
    // Base-clause harvest: `class X [final] : [virtual|access] Base, ...`.
    // Bases may be qualified; only the simple (last) component is recorded.
    std::size_t k = i + 2;
    if (c.tk(k) == sym::Final) ++k;
    if (c.tk(k) != sym::Colon) continue;
    ++k;
    while (k < c.size()) {
      while (c.tk(k) == sym::Public || c.tk(k) == sym::Protected ||
             c.tk(k) == sym::Private || c.tk(k) == sym::Virtual)
        ++k;
      Sym last = sym::Empty;
      for (; c.ident(k) || c.tk(k) == sym::Scope; ++k)
        if (c.ident(k)) last = c.tk(k);
      if (last != sym::Empty && !st.keyword(last)) {
        std::vector<Sym>& bases = model.bases[cls];
        if (std::find(bases.begin(), bases.end(), last) == bases.end())
          bases.push_back(last);
      }
      // Skip template arguments of the base, if any.
      if (c.tk(k) == sym::Less) {
        int angle = 0;
        for (; k < c.size(); ++k) {
          if (c.tk(k) == sym::Less) ++angle;
          else if (c.tk(k) == sym::Greater && --angle == 0) { ++k; break; }
          else if (c.tk(k) == sym::Shr && (angle -= 2) <= 0) { ++k; break; }
        }
      }
      if (c.tk(k) == sym::Comma) { ++k; continue; }
      break;
    }
  }
}

/// Harvests declared types for reflected field names: a token that names a
/// known field, is followed by `;`/`=`/`{` (a declaration, not a use), and
/// is preceded by a type token (identifier, `>`, `*` or `&`).  The type is
/// every token back to the previous declaration boundary.
void harvest_declared_types(const Tokens& t, SourceModel& model) {
  const SymbolTable& st = model.symbols;
  for (std::size_t i = 1; i + 1 < t.size(); ++i) {
    if (!st.word(t[i])) continue;
    const Sym next = t[i + 1];
    if (next != sym::Semi && next != sym::Assign && next != sym::LBrace)
      continue;
    const Sym prev = t[i - 1];
    const bool type_ish =
        prev == sym::Greater || prev == sym::Shr || prev == sym::Star ||
        prev == sym::Amp || st.word(prev) || prev == sym::Auto ||
        (st.builtin_type(prev) && prev != sym::Void);
    if (!type_ish) continue;
    // Walk back over type tokens only; any non-type token (`=`, `+`,
    // `return`, ...) before a declaration boundary means this is an
    // expression, not a declaration — skip the site entirely rather than
    // record a junk type.  Commas and colons are boundaries only outside
    // template angle brackets.
    std::string type;
    int angle = 0;
    bool ok = true;
    for (std::size_t j = i; j-- > 0;) {
      const Sym b = t[j];
      if (b == sym::Greater) ++angle;
      if (b == sym::Shr) angle += 2;  // nested template closer is one token
      if (b == sym::Less) {
        if (angle == 0) {
          ok = false;
          break;
        }
        --angle;
      }
      if (angle == 0 &&
          (b == sym::Semi || b == sym::LBrace || b == sym::RBrace ||
           b == sym::Colon || b == sym::LParen || b == sym::RParen ||
           b == sym::Comma))
        break;
      const bool type_tok = b == sym::Greater || b == sym::Shr ||
                            b == sym::Less || b == sym::Star ||
                            b == sym::Amp || b == sym::Scope ||
                            b == sym::Comma || st.ident(b);
      if (!type_tok) {
        ok = false;
        break;
      }
      type = st.text(b) + (type.empty() ? "" : " ") + type;
    }
    if (!ok || type.empty()) continue;
    std::string& slot = model.declared_types[st.text(t[i])];
    if (slot.empty())
      slot = type;
    else if (slot.find(type) == std::string::npos)
      slot += " | " + type;
  }
}

/// Splits every merged declared type into its words, once.
void split_declared_types(SourceModel& model) {
  for (const auto& [name, type] : model.declared_types) {
    Tokens& words = model.declared_words[model.symbols.find(name)];
    std::size_t b = 0;
    while (b < type.size()) {
      std::size_t e = type.find(' ', b);
      if (e == std::string::npos) e = type.size();
      if (e > b)
        words.push_back(model.symbols.find(std::string_view(type).substr(
            b, e - b)));
      b = e + 1;
    }
  }
}

/// Splits a parameter-list token range into Params (tracks <> and ()
/// nesting so template arguments and nested parens don't break at commas).
std::vector<Param> parse_params(const Tokens& t, const SymbolTable& st,
                                std::size_t open, std::size_t close) {
  std::vector<Param> out;
  std::size_t start = open + 1;
  int angle = 0, paren = 0;
  auto flush = [&](std::size_t from, std::size_t to) {
    if (from >= to) return;
    Param p;
    Sym last_ident = sym::Empty;
    for (std::size_t k = from; k < to; ++k) {
      const Sym x = t[k];
      if (x == sym::Const) p.is_const = true;
      else if (x == sym::Amp || x == sym::AmpAmp) p.is_ref = true;
      else if (x == sym::Star) p.is_ptr = true;
      else if (st.word(x)) last_ident = x;
    }
    p.name = st.text(last_ident);
    out.push_back(p);
  };
  for (std::size_t k = start; k < close; ++k) {
    const Sym x = t[k];
    if (x == sym::Less) ++angle;
    else if (x == sym::Greater) angle = std::max(0, angle - 1);
    else if (x == sym::Shr) angle = std::max(0, angle - 2);
    else if (x == sym::LParen) ++paren;
    else if (x == sym::RParen) --paren;
    else if (x == sym::Comma && angle == 0 && paren == 0) {
      flush(start, k);
      start = k + 1;
    }
  }
  flush(start, close);
  return out;
}

/// Walks one .cpp token stream collecting out-of-line function definitions.
void collect_definitions(const Tokens& t, const std::string& file,
                         SourceModel& model) {
  const TokenCursor c(t, model.symbols);
  const SymbolTable& st = model.symbols;
  std::vector<std::string> ns;  // namespace stack entries ("" = anonymous)
  std::size_t i = 0;
  while (i < c.size()) {
    const Sym tok = c.tk(i);
    if (tok == sym::Namespace) {
      std::size_t k = i + 1;
      const std::string name = read_qualified(c, k);
      if (c.tk(k) == sym::LBrace) ns.push_back(name);
      // else: a namespace alias or using-directive fragment
      i = k + 1;
      continue;
    }
    if (tok == sym::RBrace) {
      if (!ns.empty()) ns.pop_back();
      ++i;
      continue;
    }
    if (tok == sym::Class || tok == sym::Struct || tok == sym::Enum ||
        tok == sym::Union) {
      // Skip the whole type definition (or elaborated declaration).
      std::size_t k = i + 1;
      while (k < c.size() && c.tk(k) != sym::LBrace && c.tk(k) != sym::Semi)
        ++k;
      if (c.tk(k) == sym::LBrace) k = c.match_fwd(k, sym::LBrace, sym::RBrace);
      i = k + 1;
      continue;
    }
    if (tok == sym::Template) {  // skip template header's <...>
      std::size_t k = i + 1;
      if (c.tk(k) == sym::Less) {
        int depth = 0;
        for (; k < c.size(); ++k) {
          if (c.tk(k) == sym::Less) ++depth;
          else if (c.tk(k) == sym::Greater && --depth == 0) break;
          else if (c.tk(k) == sym::Shr) depth -= 2;
          if (depth <= 0 && c.tk(k) != sym::Less) break;
        }
      }
      i = k + 1;
      continue;
    }
    // Candidate function definition: find the next '(' before any ';'/'{'.
    std::size_t paren = c.size();
    bool has_operator = false;
    std::size_t k = i;
    for (; k < c.size(); ++k) {
      const Sym x = c.tk(k);
      if (x == sym::Operator) has_operator = true;
      if (x == sym::LParen) {
        paren = k;
        break;
      }
      if (x == sym::Semi || x == sym::LBrace || x == sym::RBrace) break;
    }
    if (paren >= c.size()) {
      // An unrecognised brace at scope (e.g. an initializer) is skipped
      // whole; a plain declaration without parens ends at its `;`.
      i = c.tk(k) == sym::LBrace ? c.match_fwd(k, sym::LBrace, sym::RBrace) + 1
                                 : k + 1;
      continue;
    }
    const std::size_t close = c.match_fwd(paren, sym::LParen, sym::RParen);
    if (close >= c.size()) {
      i = paren + 1;
      continue;
    }
    // Name and (optional) class chain directly before '('.
    Sym name = sym::Empty;
    std::string cls;
    if (!has_operator && paren > 0 && c.word(paren - 1)) {
      name = c.tk(paren - 1);
      std::size_t b = paren - 1;
      while (b >= 2 && c.tk(b - 1) == sym::Scope && c.ident(b - 2)) {
        const std::string& part = st.text(c.tk(b - 2));
        cls = cls.empty() ? part : part + "::" + cls;
        b -= 2;
      }
    }
    // What follows the parameter list?
    std::size_t after = close + 1;
    bool is_const = false;
    while (c.tk(after) == sym::Const || c.tk(after) == sym::Noexcept ||
           c.tk(after) == sym::Override || c.tk(after) == sym::Final) {
      if (c.tk(after) == sym::Const) is_const = true;
      ++after;
    }
    // Function-try-block: `f() try { ... } catch (...) { ... }`.  The body
    // recorded below starts at the `try` keyword and runs through the last
    // catch clause, so downstream passes see the same try/catch structure a
    // body-level try statement would give them.
    const bool fn_try = c.tk(after) == sym::Try;
    const std::size_t try_pos = after;
    if (fn_try) ++after;
    if (c.tk(after) == sym::Colon) {
      // Constructor init list: step over `member(init)` / `member{init}`
      // pairs until the body brace.
      std::size_t p = after + 1;
      while (p < c.size()) {
        (void)read_qualified(c, p);
        if (c.tk(p) != sym::LParen && c.tk(p) != sym::LBrace) break;
        const bool par = c.tk(p) == sym::LParen;
        p = c.match_fwd(p, par ? sym::LParen : sym::LBrace,
                        par ? sym::RParen : sym::RBrace) +
            1;
        if (c.tk(p) != sym::Comma) break;
        ++p;
      }
      // Constructors are never effect-analysis subjects; skip the body.
      i = c.tk(p) == sym::LBrace ? c.match_fwd(p, sym::LBrace, sym::RBrace) + 1
                                 : p + 1;
      continue;
    }
    if (c.tk(after) != sym::LBrace) {
      i = close + 1;  // declaration (or expression) — keep scanning after ')'
      continue;
    }
    const std::size_t body_end = c.match_fwd(after, sym::LBrace, sym::RBrace);
    if (body_end >= c.size()) {
      i = after + 1;
      continue;
    }
    std::size_t def_end = body_end;  // last token this definition consumed
    if (fn_try) {
      for (std::size_t p = body_end + 1;
           c.tk(p) == sym::Catch && c.tk(p + 1) == sym::LParen;) {
        const std::size_t cc = c.match_fwd(p + 1, sym::LParen, sym::RParen);
        if (c.tk(cc + 1) != sym::LBrace) break;
        const std::size_t cb = c.match_fwd(cc + 1, sym::LBrace, sym::RBrace);
        if (cb >= c.size()) break;
        def_end = cb;
        p = cb + 1;
      }
    }
    if (name != sym::Empty && !has_operator) {
      FunctionDef def;
      std::string prefix;
      for (const std::string& part : ns) {
        if (part.empty()) continue;
        prefix += prefix.empty() ? part : "::" + part;
      }
      if (!cls.empty())
        def.class_name = prefix.empty() ? cls : prefix + "::" + cls;
      def.name = st.text(name);
      def.name_id = name;
      def.class_id = def.class_name.empty()
                         ? sym::Empty
                         : model.symbols.intern(def.class_name);
      def.is_const = is_const;
      def.params = parse_params(t, st, paren, close);
      if (fn_try)
        def.body.assign(t.begin() + static_cast<std::ptrdiff_t>(try_pos),
                        t.begin() + static_cast<std::ptrdiff_t>(def_end) + 1);
      else
        def.body.assign(t.begin() + static_cast<std::ptrdiff_t>(after) + 1,
                        t.begin() + static_cast<std::ptrdiff_t>(body_end));
      def.file = file;
      model.functions.push_back(std::move(def));
    }
    i = def_end + 1;
  }
}

/// Assigns every definition its summary key id, in scan order.
void index_keys(SourceModel& model) {
  DefKeys& keys = model.keys;
  for (const FunctionDef& def : model.functions) {
    const auto [it, fresh] =
        keys.ids.emplace(std::uint64_t{def.class_id} << 32 | def.name_id,
                         keys.text.size());
    if (fresh) {
      keys.text.push_back(def.class_name.empty()
                              ? def.name
                              : def.class_name + "::" + def.name);
      keys.by_name[def.name_id].push_back(it->second);
    }
    keys.of_def.push_back(it->second);
  }
}

}  // namespace

SourceModel scan_sources(const std::string& root) {
  namespace fs = std::filesystem;
  if (!fs::exists(root))
    throw std::runtime_error("analyze: no such source root: " + root);

  std::vector<fs::path> headers, sources;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    const std::string ext = entry.path().extension().string();
    if (ext == ".hpp" || ext == ".h") headers.push_back(entry.path());
    else if (ext == ".cpp" || ext == ".cc") sources.push_back(entry.path());
  }
  std::sort(headers.begin(), headers.end());
  std::sort(sources.begin(), sources.end());

  auto slurp = [](const fs::path& p) {
    std::ifstream in(p);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
  };

  SourceModel model;
  std::vector<std::pair<std::string, Tokens>> header_tokens, source_tokens;
  for (const auto& p : headers)
    header_tokens.emplace_back(fs::relative(p, root).string(),
                               tokenize(slurp(p), model.symbols));
  for (const auto& p : sources)
    source_tokens.emplace_back(fs::relative(p, root).string(),
                               tokenize(slurp(p), model.symbols));
  model.facts.assign(model.symbols.size(), 0);

  // Macro metadata first (the instrumented names must be complete before
  // the clean-const harvest can veto accessors that call instrumented code).
  for (const auto& [file, toks] : header_tokens) {
    harvest_macros(toks, model);
    model.files.push_back(file);
  }
  for (const auto& [file, toks] : source_tokens) {
    harvest_macros(toks, model);
    model.files.push_back(file);
  }
  for (const auto& [file, toks] : header_tokens) {
    harvest_clean_const(toks, model);
    harvest_class_names(toks, model);
    harvest_declared_types(toks, model);
  }
  for (const auto& [file, toks] : source_tokens) {
    harvest_class_names(toks, model);
    harvest_declared_types(toks, model);
    collect_definitions(toks, file, model);
  }
  split_declared_types(model);
  model.facts.resize(model.symbols.size());
  index_keys(model);
  return model;
}

}  // namespace fatomic::analyze
