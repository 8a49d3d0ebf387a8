// Unit tests for the shared SQL lexer.

#include <gtest/gtest.h>

#include "sql/lexer.h"

namespace hyperq::sql {
namespace {

std::vector<Token> Lex(const std::string& text) {
  auto r = Tokenize(text);
  EXPECT_TRUE(r.ok()) << r.status();
  return r.ok() ? std::move(r).value() : std::vector<Token>{};
}

TEST(LexerTest, Identifiers) {
  auto t = Lex("select Foo _bar Baz9");
  ASSERT_EQ(t.size(), 5u);  // 4 idents + EOF
  EXPECT_EQ(t[0].upper, "SELECT");
  EXPECT_EQ(t[1].text, "Foo");
  EXPECT_EQ(t[1].upper, "FOO");
  EXPECT_EQ(t[2].text, "_bar");
  EXPECT_EQ(t[3].upper, "BAZ9");
}

TEST(LexerTest, NumberKinds) {
  auto t = Lex("42 3.14 1e9 2.5E-3 .5");
  EXPECT_EQ(t[0].kind, TokenKind::kInteger);
  EXPECT_EQ(t[1].kind, TokenKind::kDecimal);
  EXPECT_EQ(t[2].kind, TokenKind::kFloat);
  EXPECT_EQ(t[3].kind, TokenKind::kFloat);
  EXPECT_EQ(t[4].kind, TokenKind::kDecimal);
  EXPECT_EQ(t[4].text, ".5");
}

TEST(LexerTest, StringLiteralEscapes) {
  auto t = Lex("'it''s fine'");
  ASSERT_EQ(t[0].kind, TokenKind::kString);
  EXPECT_EQ(t[0].text, "it's fine");
}

TEST(LexerTest, UnterminatedStringFails) {
  EXPECT_FALSE(Tokenize("'oops").ok());
  EXPECT_FALSE(Tokenize("\"oops").ok());
}

TEST(LexerTest, QuotedIdentifier) {
  auto t = Lex("\"Mixed Case\"");
  ASSERT_EQ(t[0].kind, TokenKind::kQuotedIdent);
  EXPECT_EQ(t[0].text, "Mixed Case");
}

TEST(LexerTest, CommentsSkipped) {
  auto t = Lex("a -- line comment\n b /* block\n comment */ c");
  ASSERT_EQ(t.size(), 4u);
  EXPECT_EQ(t[0].upper, "A");
  EXPECT_EQ(t[1].upper, "B");
  EXPECT_EQ(t[2].upper, "C");
}

TEST(LexerTest, TwoCharOperators) {
  auto t = Lex("<= >= <> != || ^=");
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(t[i].kind, TokenKind::kOperator) << i;
  }
  EXPECT_EQ(t[0].text, "<=");
  EXPECT_EQ(t[2].text, "<>");
  EXPECT_EQ(t[4].text, "||");
  EXPECT_EQ(t[5].text, "^=");
}

TEST(LexerTest, MacroParameters) {
  auto t = Lex("WHERE x = :limit AND y = :Other_1");
  EXPECT_EQ(t[3].kind, TokenKind::kParam);
  EXPECT_EQ(t[3].upper, "LIMIT");
  EXPECT_EQ(t[7].kind, TokenKind::kParam);
  EXPECT_EQ(t[7].upper, "OTHER_1");
}

TEST(LexerTest, LineAndColumnTracking) {
  auto t = Lex("a\n  b");
  EXPECT_EQ(t[0].line, 1);
  EXPECT_EQ(t[1].line, 2);
  EXPECT_EQ(t[1].column, 3);
}

TEST(LexerTest, OffsetsSliceSourceText) {
  std::string text = "SELECT  foo";
  auto t = Lex(text);
  EXPECT_EQ(text.substr(t[1].begin_offset, t[1].end_offset - t[1].begin_offset),
            "foo");
}

TEST(LexerTest, RejectsUnknownCharacter) {
  EXPECT_FALSE(Tokenize("a @ b").ok());
}

TEST(TokenStreamTest, KeywordAndOpConsumption) {
  std::vector<Token> tokens = Lex("SELECT * FROM t");
  TokenStream ts(tokens);
  EXPECT_TRUE(ts.ConsumeKeyword("SELECT"));
  EXPECT_FALSE(ts.ConsumeKeyword("WHERE"));
  EXPECT_TRUE(ts.ConsumeOp("*"));
  EXPECT_TRUE(ts.ExpectKeyword("FROM").ok());
  EXPECT_FALSE(ts.AtEnd());
  ts.Next();
  EXPECT_TRUE(ts.AtEnd());
}

TEST(TokenStreamTest, RewindRestoresPosition) {
  std::vector<Token> tokens = Lex("a b c");
  TokenStream ts(tokens);
  size_t mark = ts.position();
  ts.Next();
  ts.Next();
  ts.Rewind(mark);
  EXPECT_EQ(ts.Peek().upper, "A");
}

TEST(TokenStreamTest, ErrorMentionsLocation) {
  std::vector<Token> tokens = Lex("SELECT");
  TokenStream ts(tokens);
  ts.Next();
  Status s = ts.ExpectKeyword("FROM");
  EXPECT_TRUE(s.IsSyntaxError());
  EXPECT_NE(s.message().find("end of input"), std::string::npos);
}

}  // namespace
}  // namespace hyperq::sql
