#include "fatomic/analyze/tokens.hpp"

#include <cctype>
#include <set>

#include "fatomic/analyze/source_model.hpp"

namespace fatomic::analyze {

namespace {

/// Class bits a spelling carries by its characters alone.
std::uint16_t spelling_bits(std::string_view s) {
  if (s.empty()) return 0;
  const auto c0 = static_cast<unsigned char>(s[0]);
  std::uint16_t bits = 0;
  if (std::isalpha(c0) || c0 == '_') bits |= kIdent;
  else if (std::isdigit(c0)) bits |= kNumber;
  else if (c0 == '"' || c0 == '\'') bits |= kLiteral;
  else bits |= kPunct;
  if (s.starts_with("FAT_")) {
    bits |= kMacro;
    if (s.starts_with("FAT_INVOKE")) bits |= kInvoke;
    if (s.find("INVOKE_ARGS") != std::string_view::npos) bits |= kInvokeArgs;
  }
  if (s.starts_with("fat_")) bits |= kFrameworkCall;
  return bits;
}

}  // namespace

SymbolTable::SymbolTable() {
  struct Word {
    const char* spelling;
    std::uint16_t roles;
  };
  static constexpr Word kVocabulary[] = {
#define FATOMIC_WORD(name, spelling, roles) {spelling, roles},
#include "fatomic/analyze/vocabulary.def"
#undef FATOMIC_WORD
  };
  for (const Word& w : kVocabulary) bits_[intern(w.spelling)] |= w.roles;
}

Sym SymbolTable::intern(std::string_view text) {
  if (auto it = ids_.find(text); it != ids_.end()) return it->second;
  const auto id = static_cast<Sym>(texts_.size());
  texts_.emplace_back(text);
  bits_.push_back(spelling_bits(text));
  ids_.emplace(std::string(text), id);
  return id;
}

Sym SymbolTable::find(std::string_view text) const {
  auto it = ids_.find(text);
  return it == ids_.end() ? sym::Empty : it->second;
}

std::string simple_of(const std::string& qualified) {
  const std::size_t sep = qualified.rfind("::");
  return sep == std::string::npos ? qualified : qualified.substr(sep + 2);
}

std::size_t TokenCursor::match_fwd(std::size_t i, Sym open, Sym close) const {
  int depth = 0;
  for (std::size_t k = i; k < size_; ++k) {
    if (data_[k] == open) ++depth;
    else if (data_[k] == close && --depth == 0) return k;
  }
  return size_;
}

std::ptrdiff_t TokenCursor::match_back(std::ptrdiff_t i, Sym open,
                                       Sym close) const {
  int depth = 0;
  for (std::ptrdiff_t k = i; k >= 0; --k) {
    const Sym t = tk(static_cast<std::size_t>(k));
    if (t == close) ++depth;
    else if (t == open && --depth == 0) return k;
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
    const Sym t = tk(k);
    if (t == sym::LParen || t == sym::LBracket || t == sym::LBrace) ++depth;
    else if (t == sym::RParen || t == sym::RBracket || t == sym::RBrace)
      --depth;
    else if (t == sym::Comma && depth == 0) {
      out.push_back({b, k});
      b = k + 1;
    }
  }
  out.push_back({b, close});
  return out;
}

Sym TokenCursor::leading_qualifier(std::size_t i) const {
  Sym leading = sym::Empty;
  for (std::size_t j = i; j >= 2 && tk(j - 1) == sym::Scope; j -= 2)
    leading = tk(j - 2);
  return leading;
}

std::size_t TokenCursor::stmt_end(std::size_t i, bool initializer) const {
  int depth = 0;
  for (std::size_t k = i; k < size_; ++k) {
    const Sym t = data_[k];
    if (t == sym::LParen || t == sym::LBracket || t == sym::LBrace) ++depth;
    else if (t == sym::RParen || t == sym::RBracket || t == sym::RBrace) {
      if (--depth < 0) return k;
    } else if ((t == sym::Semi || (initializer && t == sym::Comma)) &&
               depth == 0) {
      return k;
    }
  }
  return size_;
}

std::vector<TryRegion> try_regions(const TokenCursor& c) {
  const SymbolTable& st = c.symbols();
  std::vector<TryRegion> trys;
  for (std::size_t i = 0; i + 1 < c.size(); ++i) {
    if (c.tk(i) != sym::Try || c.tk(i + 1) != sym::LBrace) continue;
    TryRegion r;
    const std::size_t body_close = c.match_fwd(i + 1, sym::LBrace, sym::RBrace);
    if (body_close >= c.size()) continue;
    r.body_b = i + 2;
    r.body_e = body_close;
    std::size_t k = body_close + 1;
    while (c.tk(k) == sym::Catch && c.tk(k + 1) == sym::LParen) {
      const std::size_t pclose = c.match_fwd(k + 1, sym::LParen, sym::RParen);
      if (pclose >= c.size()) break;
      std::vector<Sym> idents;
      bool all = false;
      for (std::size_t m = k + 2; m < pclose; ++m) {
        const Sym t = c.tk(m);
        if (t == sym::Ellipsis || t == sym::Dot) all = true;
        if (st.ident(t) && t != sym::Const && !st.builtin_type(t))
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
            c.tk(pclose - 2) != sym::Scope)
          idents.pop_back();
        r.handler_types.push_back(idents.back());
      }
      if (c.tk(pclose + 1) != sym::LBrace) break;
      k = c.match_fwd(pclose + 1, sym::LBrace, sym::RBrace) + 1;
    }
    trys.push_back(r);
  }
  return trys;
}

namespace {

/// Does a handler for `handler` catch `type`: the same type, or a
/// (transitive) base of it per the scanned inheritance edges?  Unknown
/// bases end the walk: no match, the exception keeps propagating.
bool handler_catches(const SourceModel& model, Sym handler, Sym type) {
  if (handler == type) return true;
  std::vector<Sym> work{type};
  std::set<Sym> seen;
  while (!work.empty()) {
    const Sym cur = work.back();
    work.pop_back();
    if (!seen.insert(cur).second) continue;
    auto it = model.bases.find(cur);
    if (it == model.bases.end()) continue;
    for (const Sym base : it->second) {
      if (base == handler) return true;
      work.push_back(base);
    }
  }
  return false;
}

}  // namespace

bool escapes(const std::vector<TryRegion>& trys, const SourceModel& model,
             std::size_t pos, Sym type) {
  for (const TryRegion& r : trys) {
    if (pos < r.body_b || pos >= r.body_e) continue;
    if (r.catches_all) return false;
    for (const Sym h : r.handler_types)
      if (handler_catches(model, h, type)) return false;
  }
  return true;
}

Sym thrown_type(const TokenCursor& c, std::size_t i, const SourceModel& model) {
  std::size_t j = i + 1;
  if (!c.word(j)) return sym::Empty;
  bool qualified = false;
  while (c.tk(j + 1) == sym::Scope && c.ident(j + 2)) {
    j += 2;
    qualified = true;
  }
  const bool constructing =
      c.tk(j + 1) == sym::LParen || c.tk(j + 1) == sym::LBrace;
  if (!constructing || !(qualified || model.has(c.tk(j), kClassName)))
    return sym::Empty;
  return c.tk(j);
}

std::optional<DeclHead> parse_decl_head(const TokenCursor& c, std::size_t i) {
  const SymbolTable& st = c.symbols();
  DeclHead d;
  std::size_t j = i;
  while (c.tk(j) == sym::Const || c.tk(j) == sym::Static ||
         c.tk(j) == sym::Constexpr) {
    if (c.tk(j) == sym::Const) d.is_const = true;
    ++j;
  }
  if (c.tk(j) == sym::Auto) {
    d.is_auto = true;
    ++j;
  } else {
    const Sym first = c.tk(j);
    if (!st.ident(first)) return std::nullopt;
    if (st.keyword(first) && !st.builtin_type(first)) return std::nullopt;
    if (st.builtin_type(first)) {
      while (st.builtin_type(c.tk(j))) ++j;
    } else {
      ++j;
      while (c.tk(j) == sym::Scope && c.ident(j + 1)) j += 2;
    }
    if (c.tk(j) == sym::Less) {  // template arguments; `>>` closes two levels
      int depth = 0;
      bool closed = false;
      for (; j < c.size(); ++j) {
        const Sym t = c.tk(j);
        if (t == sym::Less) ++depth;
        else if (t == sym::Greater) {
          if (--depth == 0) {
            ++j;
            closed = true;
            break;
          }
        } else if (t == sym::Shr) {
          depth -= 2;
          if (depth <= 0) {
            ++j;
            closed = true;
            break;
          }
        } else if (t == sym::Semi || t == sym::LBrace || t == sym::RBrace) {
          return std::nullopt;
        }
      }
      if (!closed) return std::nullopt;
    }
  }
  while (c.tk(j) == sym::Star || c.tk(j) == sym::Amp ||
         c.tk(j) == sym::AmpAmp || c.tk(j) == sym::Const) {
    if (c.tk(j) == sym::Star) d.is_ptr = true;
    else if (c.tk(j) == sym::Const) d.is_const = true;
    else d.is_ref = true;
    ++j;
  }

  if (d.is_auto && c.tk(j) == sym::LBracket) {
    d.structured = true;
    for (++j; j < c.size() && c.tk(j) != sym::RBracket; ++j)
      if (c.ident(j)) d.names.push_back(c.tk(j));
    if (c.tk(j) != sym::RBracket) return std::nullopt;
    ++j;
    if (c.tk(j) != sym::Assign && c.tk(j) != sym::Colon) return std::nullopt;
    d.end = j;
    return d;
  }

  if (!c.word(j)) return std::nullopt;
  const Sym after = c.tk(j + 1);
  if (after != sym::Assign && after != sym::Semi && after != sym::Comma &&
      after != sym::Colon && after != sym::LParen && after != sym::LBrace &&
      after != sym::RParen)
    return std::nullopt;
  d.names.push_back(c.tk(j));
  d.end = j + 1;
  return d;
}

}  // namespace fatomic::analyze
