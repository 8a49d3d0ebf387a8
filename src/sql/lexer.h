// Dialect-independent SQL lexer shared by the Teradata frontend parser and
// the target engine's ANSI parser. Keywords are not distinguished here:
// identifiers carry an upper-cased form and parsers match keywords
// case-insensitively, which keeps one lexer serving two dialects.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"

namespace hyperq::sql {

enum class TokenKind : uint8_t {
  kEof = 0,
  kIdent,        // bare identifier (upper-cased in `upper`)
  kQuotedIdent,  // "Quoted Identifier" (case preserved, quotes stripped)
  kString,       // 'literal' with '' unescaped
  kInteger,      // digits only
  kDecimal,      // digits with a decimal point
  kFloat,        // scientific notation
  kOperator,     // one of the multi/single char operators
  kParam,        // :name (macro / prepared parameter)
};

struct Token {
  TokenKind kind = TokenKind::kEof;
  std::string text;   // raw text (string literals unescaped)
  std::string upper;  // upper-cased form for kIdent / kOperator
  int line = 1;
  int column = 1;
  size_t begin_offset = 0;  // byte range in the source text, used to slice
  size_t end_offset = 0;    // raw statement bodies (macros)

  bool IsKeyword(const char* kw) const;
  bool IsOp(const char* op) const {
    return kind == TokenKind::kOperator && text == op;
  }
};

/// \brief Tokenizes SQL text; `--` and `/* */` comments are skipped.
Result<std::vector<Token>> Tokenize(const std::string& sql);

/// \brief Incremental lexer over `sql` (which must outlive the lexer).
/// Next() refills the SAME Token, reusing its string capacity, so a
/// caller that consumes tokens one at a time performs no per-token heap
/// allocation. This is what keeps the translation cache's hit path off
/// the allocator: NormalizeStatement streams tokens instead of
/// materializing the vector that Tokenize() builds.
class StreamLexer {
 public:
  explicit StreamLexer(const std::string& sql) : sql_(sql) {}

  /// Lexes the next token into *t; sets kind kEof at end of input.
  Status Next(Token* t);

 private:
  bool AtEnd() const { return pos_ >= sql_.size(); }
  char Cur() const { return sql_[pos_]; }
  char LookAhead(size_t n = 1) const {
    return pos_ + n < sql_.size() ? sql_[pos_ + n] : '\0';
  }
  void Advance();
  void SkipWhitespaceAndComments();
  void Start(Token* t, TokenKind kind);
  Status Lex(Token* t);
  Status LexIdent(Token* t);
  Status LexNumber(Token* t);
  Status LexString(Token* t);
  Status LexQuotedIdent(Token* t, char quote);
  Status LexParam(Token* t);
  Status LexOperator(Token* t);

  const std::string& sql_;
  size_t pos_ = 0;
  int line_ = 1;
  int column_ = 1;
};

/// \brief Cursor over a token stream with the lookahead helpers every
/// recursive-descent parser in the repo uses. It borrows `tokens`, which
/// must outlive it: the translation pipeline lexes SQL-A once and hands
/// the same vector to the feature scan and to the parser.
class TokenStream {
 public:
  explicit TokenStream(const std::vector<Token>& tokens) : tokens_(tokens) {}
  TokenStream(std::vector<Token>&&) = delete;

  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : eof_;
  }
  const Token& Next() {
    const Token& t = Peek();
    if (pos_ < tokens_.size()) ++pos_;
    return t;
  }
  bool AtEnd() const { return Peek().kind == TokenKind::kEof; }

  /// Consumes the next token if it is the given keyword.
  bool ConsumeKeyword(const char* kw);
  /// Consumes the next token if it is the given operator text.
  bool ConsumeOp(const char* op);

  /// Errors mention line/column of the offending token.
  Status ExpectKeyword(const char* kw);
  Status ExpectOp(const char* op);

  size_t position() const { return pos_; }
  void Rewind(size_t pos) { pos_ = pos; }

  Status ErrorHere(const std::string& what) const;

 private:
  const std::vector<Token>& tokens_;
  size_t pos_ = 0;
  Token eof_;
};

}  // namespace hyperq::sql
