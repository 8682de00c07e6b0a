// Pass 0 of the static analyzer: a lightweight lexical model of the subject
// sources.  The paper's Analyzer (Figure 1, step 1) works on Java bytecode;
// our substitute tokenizes the instrumented C++ subject tree directly — no
// compiler front end — and recovers exactly the facts the effect and
// exception-flow passes need:
//
//   - per-class instrumentation metadata (FAT_METHOD_INFO / FAT_STATIC_INFO /
//     FAT_CTOR_INFO declarations and their FAT_THROWS lists),
//   - reflected member fields (FAT_REFLECT / FAT_FIELD),
//   - every out-of-line function definition (instrumented wrapper bodies,
//     un-instrumented helpers, and file-local free functions) with its
//     parameter list and body token stream,
//   - names of verified-clean inline const accessors (no throws, no calls
//     into instrumented code), which the effect pass may treat as pure.
//
// The model is deliberately conservative: anything the scanner cannot parse
// is simply absent, and absent means "unknown" (never "safe") downstream.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "fatomic/analyze/tokens.hpp"

namespace fatomic::analyze {

/// Tokenizes C++ source text into ids of `symbols`.  Comments and
/// preprocessor lines are stripped; string and character literals —
/// encoding prefix and raw form included — collapse to one "" / ''
/// placeholder token so their contents can never be mistaken for code.
/// Multi-character operators ("::", "->", "++", "+=", "<<", ...) form single
/// tokens, and a numeric literal runs on across digit separators (`1'000`).
Tokens tokenize(const std::string& source, SymbolTable& symbols);

/// One declared parameter of a function definition.
struct Param {
  std::string name;  ///< empty for unnamed parameters
  bool is_const = false;
  bool is_ref = false;
  bool is_ptr = false;
};

/// An out-of-line function definition recovered from a source file.
struct FunctionDef {
  /// Qualified class name ("subjects::collections::LinkedList") for member
  /// definitions; empty for free functions (including anonymous-namespace
  /// ones).
  std::string class_name;
  std::string name;
  bool is_const = false;
  std::vector<Param> params;
  /// Token ids strictly between the outermost body braces.
  Tokens body;
  std::string file;
  /// `name` and `class_name` as ids of the model's symbol table (sym::Empty
  /// for a free function): together they key the definition's summaries.
  Sym name_id = sym::Empty;
  Sym class_id = sym::Empty;
};

/// Dense ids for the summary keys of the scanned definitions: "Class::name"
/// for a member, "name" for a free function.  Overloads share one id.
struct DefKeys {
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  /// Key id of functions[i].
  std::vector<std::size_t> of_def;
  /// The key's text, by key id.
  std::vector<std::string> text;
  /// Key ids by (class_id, name_id), packed as class_id << 32 | name_id.
  std::unordered_map<std::uint64_t, std::size_t> ids;
  /// Key ids by the definitions' simple name, ascending.
  std::unordered_map<Sym, std::vector<std::size_t>> by_name;

  /// The key id of (class, name), or npos when no definition has it.
  std::size_t find(Sym cls, Sym name) const {
    auto it = ids.find(std::uint64_t{cls} << 32 | name);
    return it == ids.end() ? npos : it->second;
  }
};

/// What the scan learned about a name, as bits per symbol id
/// (SourceModel::has).
enum NameFact : std::uint8_t {
  /// The simple name of a class/struct declared anywhere in the scanned
  /// tree — lets the effect pass recognize `Parser(src)` as a
  /// temporary-constructing expression rather than an unknown call result.
  kClassName = 1 << 0,
  /// The simple name of an enum/enum class.  Enums are value types: a field
  /// of enum type cannot hold subobjects, so the write-set pass treats them
  /// like builtins instead of opening the receiver graph.
  kEnumName = 1 << 1,
  /// A method some class instruments — a dot/arrow call to it is a
  /// potential injection point no matter the (unknown) receiver type.
  kInstrumentedName = 1 << 2,
  /// An inline const method whose header body was verified free of throws
  /// and of calls into instrumented code; calls to it are effect-free.
  kCleanConstName = 1 << 3,
  /// A class registered with FAT_POLY (either side) — known-polymorphic.
  kPolyClass = 1 << 4,
};

/// Everything the scanner learned about one instrumented class.
struct ClassModel {
  std::string qualified_name;
  /// Reflected member fields (FAT_REFLECT / FAT_FIELD).
  std::set<std::string> fields;
  /// Methods declared with FAT_METHOD_INFO (injection-wrapped, receiver).
  std::set<std::string> instrumented;
  /// Methods declared with FAT_STATIC_INFO (injection points, no receiver).
  std::set<std::string> statics;
  bool has_ctor_info = false;
  /// The class carries a reflection block (FAT_REFLECT or the explicitly
  /// stateless FAT_REFLECT_EMPTY).  Distinguishes "reflected with zero
  /// fields" from "never reflected": writes into the former are provably
  /// impossible, the latter is unknown state.
  bool reflected = false;
  /// Declared exceptions per method, as written in FAT_THROWS (fully
  /// qualified type names).
  std::map<std::string, std::vector<std::string>> declared_throws;
};

struct SourceModel {
  /// Instrumented classes by qualified name.
  std::map<std::string, ClassModel> classes;
  /// Every function definition found, in scan order.
  std::vector<FunctionDef> functions;
  /// Declared types of members and variables, merged across all scanned
  /// declarations by name (conflicting declarations concatenate, which can
  /// only make the effect pass more conservative).  Lets the scanner tell
  /// `head_.reset()` — a smart-pointer accessor — from `re_.reset()` — a
  /// call into an instrumented subject object — when both names collide
  /// with instrumented methods.
  std::map<std::string, std::string> declared_types;
  /// Files scanned, relative to the scan root.
  std::vector<std::string> files;

  /// The scan's symbol table: every token id in `functions` indexes it.
  /// It belongs to this model; the passes read it and intern nothing.
  SymbolTable symbols;
  /// NameFact bits by symbol id: the names the scan classified.
  std::vector<std::uint8_t> facts;
  /// Inheritance edges by simple name id: derived -> declared base names.
  /// Any class that appears as a base (or registers with FAT_POLY) may be
  /// the static type of a polymorphic pointee, which the
  /// partial-checkpoint walker refuses to traverse.
  std::unordered_map<Sym, std::vector<Sym>> bases;
  /// `declared_types` by name id: each merged type split into its words
  /// once, so no pass re-splits the strings.
  std::unordered_map<Sym, Tokens> declared_words;
  /// Summary keys of `functions`.
  DefKeys keys;

  bool has(Sym s, NameFact f) const {
    return s < facts.size() && (facts[s] & f) != 0;
  }
  const Tokens* declared(Sym name) const {
    auto it = declared_words.find(name);
    return it == declared_words.end() ? nullptr : &it->second;
  }

  const ClassModel* find_class(const std::string& qualified) const {
    auto it = classes.find(qualified);
    return it == classes.end() ? nullptr : &it->second;
  }
};

/// Recursively scans `root` for .hpp/.cpp files and builds the model.
/// Throws std::runtime_error when root does not exist.
SourceModel scan_sources(const std::string& root);

}  // namespace fatomic::analyze
