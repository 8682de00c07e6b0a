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

}  // namespace

std::vector<Token> tokenize(const std::string& src) {
  std::vector<Token> out;
  const std::size_t n = src.size();
  std::size_t i = 0;
  auto at = [&](std::size_t k) { return k < n ? src[k] : '\0'; };
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
    if (c == 'R' && at(i + 1) == '"') {  // raw string literal
      std::size_t j = i + 2;
      std::string delim;
      while (j < n && src[j] != '(') delim.push_back(src[j++]);
      const std::string closer = ")" + delim + "\"";
      const std::size_t end = src.find(closer, j);
      i = end == std::string::npos ? n : end + closer.size();
      out.push_back({"\"\""});
      continue;
    }
    if (c == '"') {
      ++i;
      while (i < n && src[i] != '"') {
        if (src[i] == '\\') ++i;
        ++i;
      }
      ++i;
      out.push_back({"\"\""});
      continue;
    }
    if (c == '\'') {
      ++i;
      while (i < n && src[i] != '\'') {
        if (src[i] == '\\') ++i;
        ++i;
      }
      ++i;
      out.push_back({"''"});
      continue;
    }
    if (ident_char(c)) {
      std::size_t j = i;
      while (j < n && ident_char(src[j])) ++j;
      out.push_back({src.substr(i, j - i)});
      i = j;
      continue;
    }
    static const char* ops3[] = {"<<=", ">>=", "->*", "..."};
    static const char* ops2[] = {"::", "->", "++", "--", "<<", ">>", "<=",
                                 ">=", "==", "!=", "&&", "||", "+=", "-=",
                                 "*=", "/=", "%=", "&=", "|=", "^="};
    bool matched = false;
    for (const char* op : ops3) {
      if (src.compare(i, 3, op) == 0) {
        out.push_back({op});
        i += 3;
        matched = true;
        break;
      }
    }
    if (matched) continue;
    for (const char* op : ops2) {
      if (src.compare(i, 2, op) == 0) {
        out.push_back({op});
        i += 2;
        matched = true;
        break;
      }
    }
    if (matched) continue;
    out.push_back({std::string(1, c)});
    ++i;
  }
  return out;
}

namespace {

/// Joins identifier/"::" tokens starting at `i` into a qualified name;
/// advances `i` past them.
std::string read_qualified(const TokenCursor& c, std::size_t& i) {
  std::string name;
  while (is_ident(c.tk(i)) || c.tk(i) == "::") name += c.tk(i++);
  return name;
}

/// FAT_METHOD_INFO / FAT_STATIC_INFO / FAT_CTOR_INFO / FAT_REFLECT harvester.
void harvest_macros(const Tokens& t, SourceModel& model) {
  const TokenCursor c(t);
  for (std::size_t i = 0; i + 1 < c.size(); ++i) {
    const std::string& m = c.tk(i);
    const bool method = m == "FAT_METHOD_INFO";
    const bool stat = m == "FAT_STATIC_INFO";
    const bool ctor = m == "FAT_CTOR_INFO";
    const bool reflect = m == "FAT_REFLECT" || m == "FAT_REFLECT_EMPTY";
    const bool poly = m == "FAT_POLY";
    if (!(method || stat || ctor || reflect || poly) || c.tk(i + 1) != "(")
      continue;
    const std::size_t close = c.match_fwd(i + 1, "(", ")");
    if (close >= c.size()) continue;
    std::size_t k = i + 2;
    const std::string cls = read_qualified(c, k);
    if (cls.empty()) continue;
    if (poly) {
      // FAT_POLY(Base, Derived): both ends are polymorphic types.
      model.poly_classes.insert(simple_of(cls));
      if (k < close && c.tk(k) == ",") {
        ++k;
        const std::string derived = read_qualified(c, k);
        if (!derived.empty()) model.poly_classes.insert(simple_of(derived));
      }
      i = close;
      continue;
    }
    ClassModel& cm = model.classes[cls];
    cm.qualified_name = cls;
    if (reflect) {
      cm.reflected = true;
      for (; k < close; ++k) {
        if (c.tk(k) != "FAT_FIELD" && c.tk(k) != "FAT_OWNED") continue;
        // FAT_FIELD(Class, field) / FAT_OWNED(Class, field)
        std::size_t f = k + 2;
        (void)read_qualified(c, f);  // class
        if (f < close && c.tk(f) == ",") {
          ++f;
          if (f < close && is_ident(c.tk(f))) cm.fields.insert(c.tk(f));
        }
      }
    } else if (ctor) {
      cm.has_ctor_info = true;
    } else {
      if (k >= close || c.tk(k) != ",") continue;
      ++k;
      if (k >= close || !is_ident(c.tk(k))) continue;
      const std::string name = c.tk(k);
      (stat ? cm.statics : cm.instrumented).insert(name);
      if (!stat) model.instrumented_names.insert(name);
      auto& throws = cm.declared_throws[name];
      for (++k; k < close; ++k) {
        if (c.tk(k) != "FAT_THROWS" || c.tk(k + 1) != "(") continue;
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
  const TokenCursor c(t);
  for (std::size_t i = 2; i + 1 < c.size(); ++i) {
    if (c.tk(i) != "const" || c.tk(i - 1) != ")" || c.tk(i + 1) != "{")
      continue;
    const std::ptrdiff_t open = c.match_back(
        static_cast<std::ptrdiff_t>(i) - 1, "(", ")");
    if (open <= 0) continue;
    const std::string& name = c.tk(static_cast<std::size_t>(open) - 1);
    if (!is_ident(name) || keywords().count(name)) continue;
    const std::size_t end = c.match_fwd(i + 1, "{", "}");
    if (end >= c.size()) continue;
    bool clean = true;
    for (std::size_t k = i + 2; k < end; ++k) {
      const std::string& b = c.tk(k);
      if (b == "throw" || b.rfind("FAT_", 0) == 0 ||
          (model.instrumented_names.count(b) && c.tk(k + 1) == "(")) {
        clean = false;
        break;
      }
    }
    if (clean) model.clean_const_names.insert(name);
  }
}

/// Records the simple name of every class/struct declaration (including
/// forward declarations — a name is a name), every enum name, and the base
/// clauses' inheritance edges.
void harvest_class_names(const Tokens& t, SourceModel& model) {
  const TokenCursor c(t);
  for (std::size_t i = 0; i + 1 < c.size(); ++i) {
    if (c.tk(i) == "enum") {
      // `enum X` / `enum class X` / `enum struct X`.
      std::size_t k = i + 1;
      if (c.tk(k) == "class" || c.tk(k) == "struct") ++k;
      if (is_ident(c.tk(k)) && !keywords().count(c.tk(k)))
        model.enum_names.insert(c.tk(k));
      continue;
    }
    if (c.tk(i) != "class" && c.tk(i) != "struct") continue;
    if (i > 0 && c.tk(i - 1) == "enum") continue;
    const std::string& cls = c.tk(i + 1);
    if (!is_ident(cls) || keywords().count(cls)) continue;
    model.class_names.insert(cls);
    // Base-clause harvest: `class X [final] : [virtual|access] Base, ...`.
    // Bases may be qualified; only the simple (last) component is recorded.
    std::size_t k = i + 2;
    if (c.tk(k) == "final") ++k;
    if (c.tk(k) != ":") continue;
    ++k;
    while (k < c.size()) {
      while (c.tk(k) == "public" || c.tk(k) == "protected" ||
             c.tk(k) == "private" || c.tk(k) == "virtual")
        ++k;
      std::string last;
      for (; is_ident(c.tk(k)) || c.tk(k) == "::"; ++k)
        if (is_ident(c.tk(k))) last = c.tk(k);
      if (!last.empty() && !keywords().count(last))
        model.bases[cls].insert(last);
      // Skip template arguments of the base, if any.
      if (c.tk(k) == "<") {
        int angle = 0;
        for (; k < c.size(); ++k) {
          if (c.tk(k) == "<") ++angle;
          else if (c.tk(k) == ">" && --angle == 0) { ++k; break; }
          else if (c.tk(k) == ">>" && (angle -= 2) <= 0) { ++k; break; }
        }
      }
      if (c.tk(k) == ",") { ++k; continue; }
      break;
    }
  }
}

/// Harvests declared types for reflected field names: a token that names a
/// known field, is followed by `;`/`=`/`{` (a declaration, not a use), and
/// is preceded by a type token (identifier, `>`, `*` or `&`).  The type is
/// every token back to the previous declaration boundary.
void harvest_declared_types(const Tokens& t, SourceModel& model) {
  for (std::size_t i = 1; i + 1 < t.size(); ++i) {
    if (!is_ident(t[i].text) || keywords().count(t[i].text)) continue;
    const std::string& next = t[i + 1].text;
    if (next != ";" && next != "=" && next != "{") continue;
    const std::string& prev = t[i - 1].text;
    static const std::set<std::string> builtins = {
        "int",  "bool",  "char",  "unsigned", "signed",
        "long", "short", "float", "double",   "auto"};
    const bool type_ish =
        prev == ">" || prev == ">>" || prev == "*" || prev == "&" ||
        (is_ident(prev) && (!keywords().count(prev) || builtins.count(prev)));
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
      const std::string& b = t[j].text;
      if (b == ">") ++angle;
      if (b == ">>") angle += 2;  // nested template closer is one token
      if (b == "<") {
        if (angle == 0) {
          ok = false;
          break;
        }
        --angle;
      }
      if (angle == 0 && (b == ";" || b == "{" || b == "}" || b == ":" ||
                         b == "(" || b == ")" || b == ","))
        break;
      const bool type_tok = b == ">" || b == ">>" || b == "<" || b == "*" ||
                            b == "&" || b == "::" || b == "," || is_ident(b);
      if (!type_tok) {
        ok = false;
        break;
      }
      type = b + (type.empty() ? "" : " ") + type;
    }
    if (!ok || type.empty()) continue;
    std::string& slot = model.declared_types[t[i].text];
    if (slot.empty())
      slot = type;
    else if (slot.find(type) == std::string::npos)
      slot += " | " + type;
  }
}

/// Splits a parameter-list token range into Params (tracks <> and ()
/// nesting so template arguments and nested parens don't break at commas).
std::vector<Param> parse_params(const Tokens& t, std::size_t open,
                                std::size_t close) {
  std::vector<Param> out;
  std::size_t start = open + 1;
  int angle = 0, paren = 0;
  auto flush = [&](std::size_t from, std::size_t to) {
    if (from >= to) return;
    Param p;
    std::string last_ident;
    for (std::size_t k = from; k < to; ++k) {
      const std::string& x = t[k].text;
      if (x == "const") p.is_const = true;
      else if (x == "&" || x == "&&") p.is_ref = true;
      else if (x == "*") p.is_ptr = true;
      else if (is_ident(x) && !keywords().count(x)) last_ident = x;
    }
    p.name = last_ident;
    out.push_back(p);
  };
  for (std::size_t k = start; k < close; ++k) {
    const std::string& x = t[k].text;
    if (x == "<") ++angle;
    else if (x == ">") angle = std::max(0, angle - 1);
    else if (x == ">>") angle = std::max(0, angle - 2);
    else if (x == "(") ++paren;
    else if (x == ")") --paren;
    else if (x == "," && angle == 0 && paren == 0) {
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
  const TokenCursor c(t);
  std::vector<std::string> ns;  // namespace stack entries ("" = anonymous)
  std::size_t i = 0;
  while (i < c.size()) {
    const std::string& tok = c.tk(i);
    if (tok == "namespace") {
      std::size_t k = i + 1;
      const std::string name = read_qualified(c, k);
      if (c.tk(k) == "{") ns.push_back(name);
      // else: a namespace alias or using-directive fragment
      i = k + 1;
      continue;
    }
    if (tok == "}") {
      if (!ns.empty()) ns.pop_back();
      ++i;
      continue;
    }
    if (tok == "class" || tok == "struct" || tok == "enum" ||
        tok == "union") {
      // Skip the whole type definition (or elaborated declaration).
      std::size_t k = i + 1;
      while (k < c.size() && c.tk(k) != "{" && c.tk(k) != ";") ++k;
      if (c.tk(k) == "{") k = c.match_fwd(k, "{", "}");
      i = k + 1;
      continue;
    }
    if (tok == "template") {  // skip template header's <...>
      std::size_t k = i + 1;
      if (c.tk(k) == "<") {
        int depth = 0;
        for (; k < c.size(); ++k) {
          if (c.tk(k) == "<") ++depth;
          else if (c.tk(k) == ">" && --depth == 0) break;
          else if (c.tk(k) == ">>") depth -= 2;
          if (depth <= 0 && c.tk(k) != "<") break;
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
      const std::string& x = c.tk(k);
      if (x == "operator") has_operator = true;
      if (x == "(") {
        paren = k;
        break;
      }
      if (x == ";" || x == "{" || x == "}") break;
    }
    if (paren >= c.size()) {
      // An unrecognised brace at scope (e.g. an initializer) is skipped
      // whole; a plain declaration without parens ends at its `;`.
      i = c.tk(k) == "{" ? c.match_fwd(k, "{", "}") + 1 : k + 1;
      continue;
    }
    const std::size_t close = c.match_fwd(paren, "(", ")");
    if (close >= c.size()) {
      i = paren + 1;
      continue;
    }
    // Name and (optional) class chain directly before '('.
    std::string name, cls;
    if (!has_operator && paren > 0 && is_ident(c.tk(paren - 1)) &&
        !keywords().count(c.tk(paren - 1))) {
      name = c.tk(paren - 1);
      std::size_t b = paren - 1;
      while (b >= 2 && c.tk(b - 1) == "::" && is_ident(c.tk(b - 2))) {
        cls = cls.empty() ? c.tk(b - 2) : c.tk(b - 2) + "::" + cls;
        b -= 2;
      }
    }
    // What follows the parameter list?
    std::size_t after = close + 1;
    bool is_const = false;
    while (c.tk(after) == "const" || c.tk(after) == "noexcept" ||
           c.tk(after) == "override" || c.tk(after) == "final") {
      if (c.tk(after) == "const") is_const = true;
      ++after;
    }
    // Function-try-block: `f() try { ... } catch (...) { ... }`.  The body
    // recorded below starts at the `try` keyword and runs through the last
    // catch clause, so downstream passes see the same try/catch structure a
    // body-level try statement would give them.
    const bool fn_try = c.tk(after) == "try";
    const std::size_t try_pos = after;
    if (fn_try) ++after;
    if (c.tk(after) == ":") {
      // Constructor init list: step over `member(init)` / `member{init}`
      // pairs until the body brace.
      std::size_t p = after + 1;
      while (p < c.size()) {
        (void)read_qualified(c, p);
        if (c.tk(p) != "(" && c.tk(p) != "{") break;
        const bool par = c.tk(p) == "(";
        p = c.match_fwd(p, par ? "(" : "{", par ? ")" : "}") + 1;
        if (c.tk(p) != ",") break;
        ++p;
      }
      // Constructors are never effect-analysis subjects; skip the body.
      i = c.tk(p) == "{" ? c.match_fwd(p, "{", "}") + 1 : p + 1;
      continue;
    }
    if (c.tk(after) != "{") {
      i = close + 1;  // declaration (or expression) — keep scanning after ')'
      continue;
    }
    const std::size_t body_end = c.match_fwd(after, "{", "}");
    if (body_end >= c.size()) {
      i = after + 1;
      continue;
    }
    std::size_t def_end = body_end;  // last token this definition consumed
    if (fn_try) {
      for (std::size_t p = body_end + 1;
           c.tk(p) == "catch" && c.tk(p + 1) == "(";) {
        const std::size_t cc = c.match_fwd(p + 1, "(", ")");
        if (c.tk(cc + 1) != "{") break;
        const std::size_t cb = c.match_fwd(cc + 1, "{", "}");
        if (cb >= c.size()) break;
        def_end = cb;
        p = cb + 1;
      }
    }
    if (!name.empty() && !has_operator) {
      FunctionDef def;
      std::string prefix;
      for (const std::string& part : ns) {
        if (part.empty()) continue;
        prefix += prefix.empty() ? part : "::" + part;
      }
      if (!cls.empty())
        def.class_name = prefix.empty() ? cls : prefix + "::" + cls;
      def.name = name;
      def.is_const = is_const;
      def.params = parse_params(t, paren, close);
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
                               tokenize(slurp(p)));
  for (const auto& p : sources)
    source_tokens.emplace_back(fs::relative(p, root).string(),
                               tokenize(slurp(p)));

  // Macro metadata first (instrumented_names must be complete before the
  // clean-const harvest can veto accessors that call instrumented code).
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
  return model;
}

}  // namespace fatomic::analyze
