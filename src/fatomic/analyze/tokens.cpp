#include "fatomic/analyze/tokens.hpp"

#include <cctype>

namespace fatomic::analyze {

bool is_ident(const std::string& t) {
  return !t.empty() && (std::isalpha(static_cast<unsigned char>(t[0])) ||
                        t[0] == '_');
}

bool is_number(const std::string& t) {
  return !t.empty() && std::isdigit(static_cast<unsigned char>(t[0]));
}

const std::set<std::string>& keywords() {
  static const std::set<std::string> kw = {
      "if",       "else",    "for",      "while",     "do",       "switch",
      "case",     "default", "return",   "break",     "continue", "throw",
      "try",      "catch",   "new",      "delete",    "const",    "static",
      "class",    "struct",  "enum",     "union",     "public",   "private",
      "protected", "namespace", "using", "template",  "typename", "operator",
      "sizeof",   "true",    "false",    "nullptr",   "this",     "auto",
      "void",     "int",     "bool",     "char",      "unsigned", "signed",
      "long",     "short",   "float",    "double",    "noexcept", "override",
      "final",    "virtual", "explicit", "inline",    "constexpr", "mutable",
      "friend",   "goto",    "extern",   "typedef",   "static_cast",
      "dynamic_cast", "const_cast", "reinterpret_cast", "decltype",
  };
  return kw;
}

const std::set<std::string>& builtin_types() {
  static const std::set<std::string> t = {
      "void", "int",  "bool",   "char",     "unsigned",
      "long", "short", "float", "double",   "signed",
  };
  return t;
}

std::string simple_of(const std::string& qualified) {
  const std::size_t sep = qualified.rfind("::");
  return sep == std::string::npos ? qualified : qualified.substr(sep + 2);
}

const std::string& TokenCursor::tk(std::size_t i) const {
  static const std::string empty;
  return i < tokens_->size() ? (*tokens_)[i].text : empty;
}

std::size_t TokenCursor::match_fwd(std::size_t i, const char* open,
                                   const char* close) const {
  int depth = 0;
  for (std::size_t k = i; k < size(); ++k) {
    if (tk(k) == open) ++depth;
    else if (tk(k) == close && --depth == 0) return k;
  }
  return size();
}

std::ptrdiff_t TokenCursor::match_back(std::ptrdiff_t i, const char* open,
                                       const char* close) const {
  int depth = 0;
  for (std::ptrdiff_t k = i; k >= 0; --k) {
    if (tk(static_cast<std::size_t>(k)) == close) ++depth;
    else if (tk(static_cast<std::size_t>(k)) == open && --depth == 0)
      return k;
  }
  return -1;
}

std::vector<std::pair<std::size_t, std::size_t>> TokenCursor::split_args(
    std::size_t open, std::size_t close) const {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  if (close <= open + 1) return out;
  int depth = 0;
  std::size_t b = open + 1;
  for (std::size_t k = open + 1; k < close; ++k) {
    const std::string& t = tk(k);
    if (t == "(" || t == "[" || t == "{") ++depth;
    else if (t == ")" || t == "]" || t == "}") --depth;
    else if (t == "," && depth == 0) {
      out.push_back({b, k});
      b = k + 1;
    }
  }
  out.push_back({b, close});
  return out;
}

std::string TokenCursor::leading_qualifier(std::size_t i) const {
  std::string leading;
  for (std::size_t j = i; j >= 2 && tk(j - 1) == "::"; j -= 2)
    leading = tk(j - 2);
  return leading;
}

std::size_t TokenCursor::stmt_end(std::size_t i, bool initializer) const {
  int depth = 0;
  for (std::size_t k = i; k < size(); ++k) {
    const std::string& t = tk(k);
    if (t == "(" || t == "[" || t == "{") ++depth;
    else if (t == ")" || t == "]" || t == "}") {
      if (--depth < 0) return k;
    } else if ((t == ";" || (initializer && t == ",")) && depth == 0) {
      return k;
    }
  }
  return size();
}

std::vector<TryRegion> try_regions(const TokenCursor& c) {
  std::vector<TryRegion> trys;
  for (std::size_t i = 0; i + 1 < c.size(); ++i) {
    if (c.tk(i) != "try" || c.tk(i + 1) != "{") continue;
    TryRegion r;
    const std::size_t body_close = c.match_fwd(i + 1, "{", "}");
    if (body_close >= c.size()) continue;
    r.body_b = i + 2;
    r.body_e = body_close;
    std::size_t k = body_close + 1;
    while (c.tk(k) == "catch" && c.tk(k + 1) == "(") {
      const std::size_t pclose = c.match_fwd(k + 1, "(", ")");
      if (pclose >= c.size()) break;
      std::vector<std::string> idents;
      bool all = false;
      for (std::size_t m = k + 2; m < pclose; ++m) {
        const std::string& t = c.tk(m);
        if (t == "..." || t == ".") all = true;
        if (is_ident(t) && t != "const" && !builtin_types().count(t))
          idents.push_back(t);
      }
      if (all) {
        r.catches_all = true;
      } else if (!idents.empty()) {
        // Drop a trailing variable name (`catch (const E& e)`): the last
        // identifier is the variable when it sits right before `)` after
        // another identifier or a declarator token — never after `::`,
        // where it ends a qualified type (`catch (ns::E)`).
        if (idents.size() >= 2 && c.tk(pclose - 1) == idents.back() &&
            c.tk(pclose - 2) != "::")
          idents.pop_back();
        r.handler_types.push_back(idents.back());
      }
      if (c.tk(pclose + 1) != "{") break;
      k = c.match_fwd(pclose + 1, "{", "}") + 1;
    }
    trys.push_back(r);
  }
  return trys;
}

namespace {

/// Does a handler for `handler` catch `type`: the same type, or a
/// (transitive) base of it per the scanned inheritance edges?  Unknown
/// bases end the walk: no match, the exception keeps propagating.
bool handler_catches(const SourceModel& model, const std::string& handler,
                     const std::string& type) {
  if (handler == type) return true;
  std::vector<std::string> work{type};
  std::set<std::string> seen;
  while (!work.empty()) {
    const std::string cur = work.back();
    work.pop_back();
    if (!seen.insert(cur).second) continue;
    auto it = model.bases.find(cur);
    if (it == model.bases.end()) continue;
    for (const std::string& base : it->second) {
      if (base == handler) return true;
      work.push_back(base);
    }
  }
  return false;
}

}  // namespace

bool escapes(const std::vector<TryRegion>& trys, const SourceModel& model,
             std::size_t pos, const std::string& type) {
  const std::string simple = simple_of(type);
  for (const TryRegion& r : trys) {
    if (pos < r.body_b || pos >= r.body_e) continue;
    if (r.catches_all) return false;
    for (const std::string& h : r.handler_types)
      if (handler_catches(model, h, simple)) return false;
  }
  return true;
}

std::string thrown_type(const TokenCursor& c, std::size_t i,
                        const SourceModel& model) {
  std::size_t j = i + 1;
  if (!is_ident(c.tk(j)) || keywords().count(c.tk(j))) return {};
  bool qualified = false;
  while (c.tk(j + 1) == "::" && is_ident(c.tk(j + 2))) {
    j += 2;
    qualified = true;
  }
  const bool constructing = c.tk(j + 1) == "(" || c.tk(j + 1) == "{";
  if (!constructing || !(qualified || model.class_names.count(c.tk(j))))
    return {};
  return c.tk(j);
}

std::optional<DeclHead> parse_decl_head(const TokenCursor& c, std::size_t i) {
  DeclHead d;
  std::size_t j = i;
  while (c.tk(j) == "const" || c.tk(j) == "static" ||
         c.tk(j) == "constexpr") {
    if (c.tk(j) == "const") d.is_const = true;
    ++j;
  }
  if (c.tk(j) == "auto") {
    d.is_auto = true;
    ++j;
  } else {
    const std::string& first = c.tk(j);
    if (!is_ident(first)) return std::nullopt;
    if (keywords().count(first) && !builtin_types().count(first))
      return std::nullopt;
    if (builtin_types().count(first)) {
      while (builtin_types().count(c.tk(j))) ++j;
    } else {
      ++j;
      while (c.tk(j) == "::" && is_ident(c.tk(j + 1))) j += 2;
    }
    if (c.tk(j) == "<") {  // template arguments; `>>` closes two levels
      int depth = 0;
      bool closed = false;
      for (; j < c.size(); ++j) {
        const std::string& t = c.tk(j);
        if (t == "<") ++depth;
        else if (t == ">") {
          if (--depth == 0) {
            ++j;
            closed = true;
            break;
          }
        } else if (t == ">>") {
          depth -= 2;
          if (depth <= 0) {
            ++j;
            closed = true;
            break;
          }
        } else if (t == ";" || t == "{" || t == "}") {
          return std::nullopt;
        }
      }
      if (!closed) return std::nullopt;
    }
  }
  while (c.tk(j) == "*" || c.tk(j) == "&" || c.tk(j) == "&&" ||
         c.tk(j) == "const") {
    if (c.tk(j) == "*") d.is_ptr = true;
    else if (c.tk(j) == "const") d.is_const = true;
    else d.is_ref = true;
    ++j;
  }

  if (d.is_auto && c.tk(j) == "[") {
    d.structured = true;
    for (++j; j < c.size() && c.tk(j) != "]"; ++j)
      if (is_ident(c.tk(j))) d.names.push_back(c.tk(j));
    if (c.tk(j) != "]") return std::nullopt;
    ++j;
    if (c.tk(j) != "=" && c.tk(j) != ":") return std::nullopt;
    d.end = j;
    return d;
  }

  const std::string& name = c.tk(j);
  if (!is_ident(name) || keywords().count(name)) return std::nullopt;
  const std::string& after = c.tk(j + 1);
  if (after != "=" && after != ";" && after != "," && after != ":" &&
      after != "(" && after != "{" && after != ")")
    return std::nullopt;
  d.names.push_back(name);
  d.end = j + 1;
  return d;
}

}  // namespace fatomic::analyze
