// The token grammar every static pass scans with.  Pass 0 (source_model)
// tokenizes the subject tree once into 32-bit ids over the scan's symbol
// table; Passes 1 (effects), 4 (callgraph_static) and 5 (alias) scan
// function bodies by comparing those ids.  They share one definition of
// what an identifier and a keyword are, how brackets match, where a
// statement, initializer or argument ends, which try/catch regions enclose a
// token and whether an exception escapes them, what type a `throw` raises,
// and how a local declaration starts — so two passes can never disagree
// about, say, what a `catch` clause catches.  Each pass keeps only its own
// logic on top.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace fatomic::analyze {

struct SourceModel;

/// A token, or any other name, as its id in a SymbolTable.
using Sym = std::uint32_t;
using Tokens = std::vector<Sym>;

/// Class bits of a symbol.  The lexical ones follow from the spelling's
/// first character; the others come with the fixed vocabulary
/// (vocabulary.def) or with a name prefix.
enum SymBits : std::uint16_t {
  kIdent = 1 << 0,        ///< starts like an identifier or keyword
  kKeyword = 1 << 1,      ///< keyword, builtin type name or named cast
  kBuiltinType = 1 << 2,  ///< builtin type a declaration may start with
  kNumber = 1 << 3,       ///< starts like a numeric literal
  kLiteral = 1 << 4,      ///< the "" / '' placeholder of a literal
  kPunct = 1 << 5,        ///< operator or bracket
  kAssignOp = 1 << 6,     ///< `=` or a compound assignment
  kValueLike = 1 << 7,    ///< keeps a declared type value-like (Pass 3)
  kPureMember = 1 << 8,   ///< effect-free library accessor (Pass 1)
  kPureStd = 1 << 9,      ///< effect-free std:: function (Pass 1)
  kIdentity = 1 << 10,    ///< accessor aliasing its receiver (Pass 5)
  kMacro = 1 << 11,       ///< `FAT_` prefix: an instrumentation macro
  kFrameworkCall = 1 << 12,  ///< `fat_` prefix: a framework helper
  kInvoke = 1 << 13,      ///< `FAT_INVOKE` prefix: a wrapper's invoke macro
  kInvokeArgs = 1 << 14,  ///< an invoke macro carrying a std::tie list
};

/// The fixed vocabulary: sym::Name is the id of its spelling in every table.
namespace sym {
enum : Sym {
#define FATOMIC_WORD(name, spelling, roles) name,
#include "fatomic/analyze/vocabulary.def"
#undef FATOMIC_WORD
  kVocabularySize
};
}  // namespace sym

/// Interns spellings as dense ids and carries each id's class bits.  One
/// table belongs to one scan (SourceModel::symbols); every table starts with
/// the vocabulary, so sym:: ids mean the same word in all of them.
class SymbolTable {
 public:
  SymbolTable();

  /// The id of `text`, interning it on first sight.
  Sym intern(std::string_view text);
  /// The id of `text`, or sym::Empty when the table has never seen it.
  Sym find(std::string_view text) const;

  std::size_t size() const { return texts_.size(); }
  const std::string& text(Sym s) const { return texts_[s]; }
  bool has(Sym s, std::uint16_t b) const { return (bits_[s] & b) != 0; }

  bool ident(Sym s) const { return has(s, kIdent); }
  bool number(Sym s) const { return has(s, kNumber); }
  bool keyword(Sym s) const { return has(s, kKeyword); }
  bool builtin_type(Sym s) const { return has(s, kBuiltinType); }
  /// An identifier that is not a keyword: a variable, member, type or
  /// function name.
  bool word(Sym s) const { return (bits_[s] & (kIdent | kKeyword)) == kIdent; }

 private:
  struct Hash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  std::vector<std::string> texts_;
  std::vector<std::uint16_t> bits_;
  std::unordered_map<std::string, Sym, Hash, std::equal_to<>> ids_;
};

/// Last component of a `::`-qualified name.
std::string simple_of(const std::string& qualified);

/// Bounds-safe view over a token stream: an index outside the stream reads
/// as the empty token (sym::Empty), and every search stops at the stream's
/// bounds.
class TokenCursor {
 public:
  TokenCursor(const Tokens& tokens, const SymbolTable& symbols)
      : data_(tokens.data()), size_(tokens.size()), symbols_(&symbols) {}

  std::size_t size() const { return size_; }
  /// Token id at `i`; sym::Empty past the end.
  Sym tk(std::size_t i) const { return i < size_ ? data_[i] : sym::Empty; }
  const SymbolTable& symbols() const { return *symbols_; }
  /// Class tests of the token at `i` (see SymbolTable).
  bool ident(std::size_t i) const { return symbols_->ident(tk(i)); }
  bool word(std::size_t i) const { return symbols_->word(tk(i)); }
  bool has(std::size_t i, std::uint16_t b) const {
    return symbols_->has(tk(i), b);
  }

  /// The `close` matching the `open` at `i`; size() when unbalanced.
  std::size_t match_fwd(std::size_t i, Sym open, Sym close) const;
  /// The `open` matching the `close` at `i`; -1 when unbalanced.
  std::ptrdiff_t match_back(std::ptrdiff_t i, Sym open, Sym close) const;
  /// Splits the bracketed list in (open, close) at top-level commas into
  /// [begin, end) token ranges.  Empty for an empty list.
  std::vector<std::pair<std::size_t, std::size_t>> split_args(
      std::size_t open, std::size_t close) const;
  /// First component of the `a::b::name` chain ending at token `i`;
  /// sym::Empty when token `i` is unqualified.
  Sym leading_qualifier(std::size_t i) const;
  /// End of the statement running through `i`: the next `;` at bracket
  /// depth zero, or an unbalanced closing bracket.  With `initializer`, a
  /// top-level `,` also ends it (one declarator's initializer).
  std::size_t stmt_end(std::size_t i, bool initializer = false) const;

 private:
  const Sym* data_;
  std::size_t size_;
  const SymbolTable* symbols_;
};

/// One `try { body } catch (T1) {h1} catch (T2) {h2} ...` statement.
/// Handler bodies lie outside the range: a throw in a handler — including a
/// `throw;` rethrow — is only covered by outer try blocks, as in C++.
struct TryRegion {
  std::size_t body_b = 0, body_e = 0;  ///< try-block body token range
  bool catches_all = false;            ///< has a `catch (...)` handler
  std::vector<Sym> handler_types;      ///< simple type names
};

/// Every try statement of a body (a function-try-block's body starts with
/// its `try`), nested ones included.
std::vector<TryRegion> try_regions(const TokenCursor& c);

/// Can an exception of simple type `type` raised at `pos` escape every try
/// region enclosing it?  `catch (...)` stops anything; a typed handler stops
/// its own type and, per the model's inheritance edges, types derived from
/// it.  A statically unknown type — sym::Empty, or Pass 4's wildcard —
/// matches no typed handler.
bool escapes(const std::vector<TryRegion>& trys, const SourceModel& model,
             std::size_t pos, Sym type);

/// Simple name of the type a `throw` at `i` raises: the last identifier of
/// `throw Type(...)` / `throw ns::Type{...}`, when the chain is qualified or
/// names a scanned class.  sym::Empty when unknown (`throw;`, a thrown
/// variable, `throw make_error()`).
Sym thrown_type(const TokenCursor& c, std::size_t i, const SourceModel& model);

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
  std::vector<Sym> names;
  /// The token after the head: the one after the name (`=`, `;`, `,`, `:`,
  /// `(`, `{` or `)`), or the `=` / `:` after a structured binding's `]`.
  std::size_t end = 0;
};

/// Parses a local declaration starting at statement token `i`; nullopt when
/// the tokens do not start one.
std::optional<DeclHead> parse_decl_head(const TokenCursor& c, std::size_t i);

}  // namespace fatomic::analyze
