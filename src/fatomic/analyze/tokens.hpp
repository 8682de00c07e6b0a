// The token grammar every static pass scans with.  Pass 0 (source_model)
// tokenizes the subject tree; Passes 1 (effects), 4 (callgraph_static) and
// 5 (alias) scan function bodies.  They share one definition of what an
// identifier and a keyword are, how brackets match, where a statement,
// initializer or argument ends, which try/catch regions enclose a token and
// whether an exception escapes them, what type a `throw` raises, and how a
// local declaration starts — so two passes can never disagree about, say,
// what a `catch` clause catches.  Each pass keeps only its own logic on top.
#pragma once

#include <cstddef>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "fatomic/analyze/source_model.hpp"

namespace fatomic::analyze {

using Tokens = std::vector<Token>;

/// Starts like an identifier or keyword: a letter or underscore.
bool is_ident(const std::string& t);
/// Starts like a numeric literal.
bool is_number(const std::string& t);
/// Keywords, builtin type names and the named casts: never a variable,
/// member or function name.
const std::set<std::string>& keywords();
/// The builtin type keywords a declaration may start with.
const std::set<std::string>& builtin_types();
/// Last component of a `::`-qualified name.
std::string simple_of(const std::string& qualified);

/// Bounds-safe view over a token stream: an index outside the stream reads
/// as the empty token, and every search stops at the stream's bounds.
class TokenCursor {
 public:
  explicit TokenCursor(const Tokens& tokens) : tokens_(&tokens) {}

  std::size_t size() const { return tokens_->size(); }
  /// Token text at `i`; "" past the end.
  const std::string& tk(std::size_t i) const;
  /// The `close` matching the `open` at `i`; size() when unbalanced.
  std::size_t match_fwd(std::size_t i, const char* open,
                        const char* close) const;
  /// The `open` matching the `close` at `i`; -1 when unbalanced.
  std::ptrdiff_t match_back(std::ptrdiff_t i, const char* open,
                            const char* close) const;
  /// Splits the bracketed list in (open, close) at top-level commas into
  /// [begin, end) token ranges.  Empty for an empty list.
  std::vector<std::pair<std::size_t, std::size_t>> split_args(
      std::size_t open, std::size_t close) const;
  /// First component of the `a::b::name` chain ending at token `i`; empty
  /// when token `i` is unqualified.
  std::string leading_qualifier(std::size_t i) const;
  /// End of the statement running through `i`: the next `;` at bracket
  /// depth zero, or an unbalanced closing bracket.  With `initializer`, a
  /// top-level `,` also ends it (one declarator's initializer).
  std::size_t stmt_end(std::size_t i, bool initializer = false) const;

 private:
  const Tokens* tokens_;
};

/// One `try { body } catch (T1) {h1} catch (T2) {h2} ...` statement.
/// Handler bodies lie outside the range: a throw in a handler — including a
/// `throw;` rethrow — is only covered by outer try blocks, as in C++.
struct TryRegion {
  std::size_t body_b = 0, body_e = 0;      ///< try-block body token range
  bool catches_all = false;                ///< has a `catch (...)` handler
  std::vector<std::string> handler_types;  ///< simple type names
};

/// Every try statement of a body (a function-try-block's body starts with
/// its `try`), nested ones included.
std::vector<TryRegion> try_regions(const TokenCursor& c);

/// Can an exception of `type` raised at `pos` escape every try region
/// enclosing it?  `catch (...)` stops anything; a typed handler stops its
/// own type and, per the model's inheritance edges, types derived from it.
/// `type` may be qualified (handlers compare simple names); a statically
/// unknown type — empty, or Pass 4's wildcard "*" — matches no typed
/// handler.
bool escapes(const std::vector<TryRegion>& trys, const SourceModel& model,
             std::size_t pos, const std::string& type);

/// Simple name of the type a `throw` at `i` raises: the last identifier of
/// `throw Type(...)` / `throw ns::Type{...}`, when the chain is qualified or
/// names a scanned class.  Empty when unknown (`throw;`, a thrown variable,
/// `throw make_error()`).
std::string thrown_type(const TokenCursor& c, std::size_t i,
                        const SourceModel& model);

/// The head of a local declaration: specifiers, type and declarator up to
/// the declared name(s).
struct DeclHead {
  bool is_auto = false;
  bool is_const = false;  ///< `const` among the specifiers or declarators
  bool is_ptr = false;
  bool is_ref = false;  ///< `&` or `&&`
  /// `auto [a, b] = ...` / `auto& [a, b] : ...`.
  bool structured = false;
  /// The declared name, or every name of a structured binding.
  std::vector<std::string> names;
  /// The token after the head: the one after the name (`=`, `;`, `,`, `:`,
  /// `(`, `{` or `)`), or the `=` / `:` after a structured binding's `]`.
  std::size_t end = 0;
};

/// Parses a local declaration starting at statement token `i`; nullopt when
/// the tokens do not start one.
std::optional<DeclHead> parse_decl_head(const TokenCursor& c, std::size_t i);

}  // namespace fatomic::analyze
