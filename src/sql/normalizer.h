// SQL-A statement normalization for the translation cache.
//
// BI workloads are dominated by repeated query shapes that differ only in
// literal values. NormalizeStatement canonicalizes a statement's token
// stream (case, whitespace, comments) and extracts every literal into a
// parameter vector; the resulting template string is the cache fingerprint.
// Two queries with the same template can share one cached translation and
// differ only in the literals re-spliced into the serialized SQL-B.
//
// Literal canonicalization mirrors the parser+serializer round trip
// (parse the token into a Datum, render it the way the Serializer would),
// so a spliced literal is byte-identical to what a cold translation of the
// same statement would have produced. When that mirror cannot be
// guaranteed the caller must bypass the cache — correctness over hit rate.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "sql/lexer.h"

namespace hyperq::sql {

/// \brief How a literal parameter is rendered when spliced into a cached
/// SQL-B template. Fixed per template slot when the template is built; it
/// records what the parser+serializer did to the literal on the cold run.
enum class SpliceMode : uint8_t {
  kInteger,    // strtoll + decimal re-render (mirrors MakeIntConst)
  kDecimal,    // Decimal::Parse + ToString (scale preserving)
  kFloat,      // strtod + "%.17g" (+ ".0" suffix rule)
  kString,     // re-quoted verbatim ('' escaping)
  kDateString,       // ParseDate + FormatDate, quoted (DATE '...')
  kTimeString,       // ParseTime + FormatTime, quoted
  kTimestampString,  // ParseTimestamp + FormatTimestamp, quoted
};

/// \brief One literal extracted during normalization, in template order.
struct ExtractedLiteral {
  TokenKind kind = TokenKind::kInteger;
  std::string text;  // raw token text (strings are unescaped)
  /// Typed-literal context: "DATE"/"TIME"/"TIMESTAMP" when the string
  /// literal directly follows that keyword; empty otherwise.
  std::string type_keyword;
  /// Byte offset of the literal token in the SQL-A text. The parser stamps
  /// the same offset on the constant it builds from this token, which is
  /// how the translation cache ties a serialized site back to its literal.
  size_t offset = 0;
};

/// \brief A statement reduced to its cacheable shape.
struct NormalizedStatement {
  /// Canonical text: tokens joined by single spaces, identifiers
  /// upper-cased, comments dropped, every literal replaced by '?'.
  std::string template_sql;
  /// Literal type signature (one tag per literal, e.g. "i,d2,s"); part of
  /// the fingerprint so e.g. DECIMAL literals of different scale do not
  /// share a template (their serialized renderings differ).
  std::string literal_signature;
  std::vector<ExtractedLiteral> literals;
  /// Upper-cased bare/quoted identifiers (volatile-table bypass checks);
  /// empty unless requested from NormalizeStatement.
  std::vector<std::string> identifiers;
  std::string first_keyword;  // first identifier token, upper-cased
  /// True when the source carries :name or ? placeholders — never cache.
  bool has_parameters = false;
};

/// \brief Normalizes one statement. Fails only on lexer errors.
/// `collect_identifiers` fills `identifiers`; a caller with no volatile
/// table to check against skips copying them.
Result<NormalizedStatement> NormalizeStatement(
    const std::string& sql, bool collect_identifiers = true);

/// \brief The splice mode a literal canonicalizes under by default.
SpliceMode NaturalSpliceMode(const ExtractedLiteral& lit);

/// \brief Canonical SQL-B text for `lit` under `mode`, mirroring the
/// parser -> Datum -> Serializer::RenderLiteral pipeline byte-for-byte.
/// Fails when the literal cannot be rendered in that mode (e.g. a
/// non-date string in a DATE slot).
Result<std::string> RenderLiteralCanonical(const ExtractedLiteral& lit,
                                           SpliceMode mode);

/// \brief Bitmask of temporal interpretations a plain string literal is
/// *canonical* under (bit 0 = DATE, bit 1 = TIME, bit 2 = TIMESTAMP).
/// Used by the cache to detect slots where the binder may have coerced
/// the creator's string into a temporal literal: a re-spliced string must
/// be canonical under every interpretation the creator was canonical
/// under, otherwise the cold path could have reformatted it.
uint8_t TemporalCanonicalMask(const std::string& text);

}  // namespace hyperq::sql
