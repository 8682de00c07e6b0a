// The token layer the static passes share (analyze/tokens, Pass 0's
// tokenizer): symbol ids and their class bits, the lexer's handling of
// literals, comments and operators, and TokenCursor's bounds behaviour.
#include <gtest/gtest.h>

#include <string>

#include "fatomic/analyze/source_model.hpp"
#include "fatomic/analyze/tokens.hpp"

namespace {

namespace analyze = fatomic::analyze;
namespace sym = fatomic::analyze::sym;

/// The token texts of `src`, space-separated.
std::string lex(const std::string& src) {
  analyze::SymbolTable st;
  std::string out;
  for (const analyze::Sym s : analyze::tokenize(src, st))
    out += (out.empty() ? "" : " ") + st.text(s);
  return out;
}

/// A tokenized snippet with its cursor.
struct Snippet {
  explicit Snippet(const std::string& src)
      : tokens(analyze::tokenize(src, symbols)), cursor(tokens, symbols) {}
  analyze::SymbolTable symbols;
  analyze::Tokens tokens;
  analyze::TokenCursor cursor;
};

TEST(Tokenize, DigitSeparatorKeepsFollowingCode) {
  EXPECT_EQ(lex("n = 1'000; f(); c = 'a';"),
            "n = 1'000 ; f ( ) ; c = '' ;");
  EXPECT_EQ(lex("m = 0xFF'FF; g();"), "m = 0xFF'FF ; g ( ) ;");
}

TEST(Tokenize, PrefixedRawStringKeepsFollowingCode) {
  for (const char* prefix : {"u8R", "LR", "uR", "UR", "R"}) {
    EXPECT_EQ(lex(std::string("auto s = ") + prefix + "\"(a\"b)\"; f();"),
              "auto s = \"\" ; f ( ) ;")
        << prefix;
  }
  EXPECT_EQ(lex("x = u8R\"d(a)\"b)d\"; f();"), "x = \"\" ; f ( ) ;");
}

TEST(Tokenize, PrefixedLiteralIsOnePlaceholder) {
  EXPECT_EQ(lex("a = u8'x'; b = L\"x\"; c = u\"y\"; d = U'z';"),
            "a = '' ; b = \"\" ; c = \"\" ; d = '' ;");
  // A prefix letter not directly before a quote is an identifier.
  EXPECT_EQ(lex("L + u8 + U + u"), "L + u8 + U + u");
  // Number lexing is otherwise unchanged.
  EXPECT_EQ(lex("x = 1.5;"), "x = 1 . 5 ;");
}

TEST(Tokenize, LongestMatchOperators) {
  EXPECT_EQ(lex("a >>= b"), "a >>= b");
  EXPECT_EQ(lex("p ->* m"), "p ->* m");
  EXPECT_EQ(lex("f(...)"), "f ( ... )");
  EXPECT_EQ(lex("ns::f"), "ns :: f");
  EXPECT_EQ(lex("a<<=b>>c"), "a <<= b >> c");
}

TEST(Tokenize, StripsCommentsAndContinuedPreprocessorLines) {
  EXPECT_EQ(lex("#define X(a) \\\n  a + 1\n"
                "int x; // trailing\n"
                "/* block\n comment */ y"),
            "int x ; y");
}

TEST(Tokenize, StringAndCharacterPlaceholders) {
  EXPECT_EQ(lex("s = \"a;b\\\"}\"; c = '\\''; d = '{';"),
            "s = \"\" ; c = '' ; d = '' ;");
}

TEST(SymbolTable, ClassBitsOfSampleTokens) {
  analyze::SymbolTable st;
  const analyze::Sym kw = st.intern("for");
  EXPECT_TRUE(st.keyword(kw));
  EXPECT_TRUE(st.ident(kw));
  EXPECT_FALSE(st.word(kw));
  const analyze::Sym int_kw = st.intern("int");
  EXPECT_TRUE(st.keyword(int_kw));
  EXPECT_TRUE(st.builtin_type(int_kw));
  const analyze::Sym name = st.intern("x_1");
  EXPECT_TRUE(st.ident(name));
  EXPECT_TRUE(st.word(name));
  EXPECT_FALSE(st.keyword(name));
  const analyze::Sym number = st.intern("42");
  EXPECT_TRUE(st.number(number));
  EXPECT_FALSE(st.ident(number));
  const analyze::Sym scope = st.intern("::");
  EXPECT_TRUE(st.has(scope, analyze::kPunct));
  EXPECT_FALSE(st.ident(scope));
  EXPECT_TRUE(st.has(sym::StringLit, analyze::kLiteral));
  EXPECT_TRUE(st.has(st.intern("FAT_INVOKE_ARGS"),
                     analyze::kMacro | analyze::kInvoke));
}

TEST(SymbolTable, VocabularyIdsMatchSpellings) {
  const analyze::SymbolTable st;
  EXPECT_EQ(st.text(sym::Empty), "");
  EXPECT_EQ(st.text(sym::LParen), "(");
  EXPECT_EQ(st.text(sym::Catch), "catch");
  EXPECT_EQ(st.text(sym::FatThrows), "FAT_THROWS");
  EXPECT_EQ(st.size(), static_cast<std::size_t>(sym::kVocabularySize));
}

TEST(SymbolTable, InternsOnceAndFindsWithoutInterning) {
  analyze::SymbolTable st;
  const std::size_t before = st.size();
  EXPECT_EQ(st.find("fresh_name"), sym::Empty);
  const analyze::Sym a = st.intern("fresh_name");
  EXPECT_EQ(st.intern("fresh_name"), a);
  EXPECT_EQ(st.find("fresh_name"), a);
  EXPECT_EQ(st.size(), before + 1);
  EXPECT_EQ(st.find("catch"), sym::Catch);
}

TEST(TokenCursor, PastTheEndIsTheEmptyToken) {
  const Snippet s("a b");
  EXPECT_EQ(s.cursor.size(), 2u);
  EXPECT_EQ(s.cursor.tk(2), sym::Empty);
  EXPECT_EQ(s.cursor.tk(1000), sym::Empty);
  EXPECT_EQ(s.symbols.text(s.cursor.tk(2)), "");
}

TEST(TokenCursor, UnbalancedSearchesStopAtTheBounds) {
  const Snippet open("( a ( b )");
  EXPECT_EQ(open.cursor.match_fwd(0, sym::LParen, sym::RParen),
            open.cursor.size());
  EXPECT_EQ(open.cursor.match_fwd(2, sym::LParen, sym::RParen), 4u);
  const Snippet close("a ) b )");
  EXPECT_EQ(close.cursor.match_back(3, sym::LParen, sym::RParen), -1);
}

TEST(TokenCursor, SplitArgsAtTopLevelCommas) {
  const Snippet empty("f ( )");
  EXPECT_TRUE(empty.cursor.split_args(1, 2).empty());
  const Snippet call("f ( a , ( b , c ) , d [ 1 , 2 ] )");
  const std::size_t close = call.cursor.match_fwd(1, sym::LParen, sym::RParen);
  ASSERT_EQ(close, call.cursor.size() - 1);
  const auto args = call.cursor.split_args(1, close);
  ASSERT_EQ(args.size(), 3u);
  EXPECT_EQ(args[0], std::make_pair(std::size_t{2}, std::size_t{3}));
  EXPECT_EQ(args[1], std::make_pair(std::size_t{4}, std::size_t{9}));
  EXPECT_EQ(args[2], std::make_pair(std::size_t{10}, close));
}

TEST(TokenCursor, StatementEndWithAndWithoutInitializer) {
  // 0 a  1 =  2 f  3 (  4 x  5 ,  6 y  7 )  8 ,  9 b  10 ;  11 c
  const Snippet s("a = f(x, y), b; c");
  EXPECT_EQ(s.cursor.stmt_end(0), 10u);
  EXPECT_EQ(s.cursor.stmt_end(2, /*initializer=*/true), 8u);
  // An unbalanced closing bracket ends the statement too.
  const Snippet inner("x ) ;");
  EXPECT_EQ(inner.cursor.stmt_end(0), 1u);
  // No end at all: size().
  const Snippet open("a = b");
  EXPECT_EQ(open.cursor.stmt_end(0), open.cursor.size());
}

TEST(TokenCursor, LeadingQualifier) {
  const Snippet s("std :: chrono :: now ( ) ; now");
  EXPECT_EQ(s.cursor.leading_qualifier(4), sym::Std);
  EXPECT_EQ(s.cursor.leading_qualifier(8), sym::Empty);
}

}  // namespace
