#include "sql/normalizer.h"

#include <cstdio>
#include <cstdlib>

#include "common/str_util.h"
#include "types/date.h"
#include "types/decimal.h"

namespace hyperq::sql {

namespace {

bool IsTypedLiteralKeyword(const std::string& upper) {
  return upper == "DATE" || upper == "TIME" || upper == "TIMESTAMP";
}

char LiteralTag(const ExtractedLiteral& lit) {
  switch (lit.kind) {
    case TokenKind::kInteger:
      return 'i';
    case TokenKind::kDecimal:
      return 'd';
    case TokenKind::kFloat:
      return 'f';
    default:
      return 's';
  }
}

}  // namespace

Result<NormalizedStatement> NormalizeStatement(const std::string& sql,
                                               bool collect_identifiers) {
  NormalizedStatement out;
  std::string& tpl = out.template_sql;
  tpl.reserve(sql.size() + 8);
  if (collect_identifiers) out.identifiers.reserve(16);
  auto append = [&tpl](const std::string& part) {
    if (!tpl.empty()) tpl += ' ';
    tpl += part;
  };
  // Single streaming pass: one reusable Token, no materialized token
  // vector — this is the translation cache's hit-path fast lane. The
  // one-token lookbehind the literal rules need is carried in two flags.
  StreamLexer lexer(sql);
  Token t;
  bool prev_interval = false;       // previous token was keyword INTERVAL
  const char* prev_temporal = nullptr;  // "DATE"/"TIME"/"TIMESTAMP"
  while (true) {
    HQ_RETURN_IF_ERROR(lexer.Next(&t));
    if (t.kind == TokenKind::kEof) break;
    switch (t.kind) {
      case TokenKind::kEof:
        break;
      case TokenKind::kIdent: {
        if (out.first_keyword.empty()) out.first_keyword = t.upper;
        if (collect_identifiers) out.identifiers.push_back(t.upper);
        append(t.upper);
        break;
      }
      case TokenKind::kQuotedIdent:
        if (collect_identifiers) out.identifiers.push_back(t.upper);
        append(QuoteSql(t.text, '"'));
        break;
      case TokenKind::kString: {
        if (prev_interval) {
          // INTERVAL literals fold into their unit at parse time and never
          // reach SQL-B verbatim: keep the value in the template so
          // different intervals produce different templates.
          append(QuoteSql(t.text, '\''));
          break;
        }
        ExtractedLiteral lit;
        lit.kind = t.kind;
        lit.text = t.text;
        lit.offset = t.begin_offset;
        if (prev_temporal != nullptr) lit.type_keyword = prev_temporal;
        if (!out.literal_signature.empty()) out.literal_signature += ',';
        out.literal_signature += LiteralTag(lit);
        if (!lit.type_keyword.empty()) out.literal_signature += 't';
        out.literals.push_back(std::move(lit));
        append("?");
        break;
      }
      case TokenKind::kInteger:
      case TokenKind::kDecimal:
      case TokenKind::kFloat: {
        ExtractedLiteral lit;
        lit.kind = t.kind;
        lit.text = t.text;
        lit.offset = t.begin_offset;
        if (!out.literal_signature.empty()) out.literal_signature += ',';
        out.literal_signature += LiteralTag(lit);
        if (t.kind == TokenKind::kDecimal) {
          // Scale is part of the signature: DECIMAL rendering preserves it,
          // so '5.0' and '5.00' must not share a template.
          size_t dot = t.text.find('.');
          size_t scale = dot == std::string::npos
                             ? 0
                             : t.text.size() - dot - 1;
          out.literal_signature += std::to_string(scale);
        }
        out.literals.push_back(std::move(lit));
        append("?");
        break;
      }
      case TokenKind::kParam:
        out.has_parameters = true;
        append(":" + t.upper);
        break;
      case TokenKind::kOperator:
        if (t.text == "?") out.has_parameters = true;
        append(t.text);
        break;
    }
    prev_interval = t.kind == TokenKind::kIdent && t.upper == "INTERVAL";
    prev_temporal = nullptr;
    if (t.kind == TokenKind::kIdent && IsTypedLiteralKeyword(t.upper)) {
      prev_temporal = t.upper == "DATE" ? "DATE"
                      : t.upper == "TIME" ? "TIME"
                                          : "TIMESTAMP";
    }
  }
  return out;
}

SpliceMode NaturalSpliceMode(const ExtractedLiteral& lit) {
  switch (lit.kind) {
    case TokenKind::kInteger:
      return SpliceMode::kInteger;
    case TokenKind::kDecimal:
      return SpliceMode::kDecimal;
    case TokenKind::kFloat:
      return SpliceMode::kFloat;
    default:
      break;
  }
  if (lit.type_keyword == "DATE") return SpliceMode::kDateString;
  if (lit.type_keyword == "TIME") return SpliceMode::kTimeString;
  if (lit.type_keyword == "TIMESTAMP") return SpliceMode::kTimestampString;
  return SpliceMode::kString;
}

Result<std::string> RenderLiteralCanonical(const ExtractedLiteral& lit,
                                           SpliceMode mode) {
  switch (mode) {
    case SpliceMode::kInteger: {
      if (lit.kind != TokenKind::kInteger) {
        return Status::Internal("integer slot fed a non-integer literal");
      }
      // Mirrors the parser's MakeIntConst(strtoll(...)) exactly, including
      // its saturation behavior on overflow.
      return std::to_string(std::strtoll(lit.text.c_str(), nullptr, 10));
    }
    case SpliceMode::kDecimal: {
      if (lit.kind != TokenKind::kDecimal) {
        return Status::Internal("decimal slot fed a non-decimal literal");
      }
      HQ_ASSIGN_OR_RETURN(Decimal d, Decimal::Parse(lit.text));
      return d.ToString();
    }
    case SpliceMode::kFloat: {
      if (lit.kind != TokenKind::kFloat) {
        return Status::Internal("float slot fed a non-float literal");
      }
      double v = std::strtod(lit.text.c_str(), nullptr);
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.17g", v);
      std::string s = buf;
      if (s.find('.') == std::string::npos &&
          s.find('e') == std::string::npos &&
          s.find("inf") == std::string::npos &&
          s.find("nan") == std::string::npos) {
        s += ".0";
      }
      return s;
    }
    case SpliceMode::kString: {
      if (lit.kind != TokenKind::kString) {
        return Status::Internal("string slot fed a non-string literal");
      }
      return QuoteSql(lit.text, '\'');
    }
    case SpliceMode::kDateString: {
      if (lit.kind != TokenKind::kString) {
        return Status::Internal("date slot fed a non-string literal");
      }
      HQ_ASSIGN_OR_RETURN(int32_t days, ParseDate(lit.text));
      return QuoteSql(FormatDate(days), '\'');
    }
    case SpliceMode::kTimeString: {
      if (lit.kind != TokenKind::kString) {
        return Status::Internal("time slot fed a non-string literal");
      }
      HQ_ASSIGN_OR_RETURN(int64_t micros, ParseTime(lit.text));
      return QuoteSql(FormatTime(micros), '\'');
    }
    case SpliceMode::kTimestampString: {
      if (lit.kind != TokenKind::kString) {
        return Status::Internal("timestamp slot fed a non-string literal");
      }
      HQ_ASSIGN_OR_RETURN(int64_t micros, ParseTimestamp(lit.text));
      return QuoteSql(FormatTimestamp(micros), '\'');
    }
  }
  return Status::Internal("unknown splice mode");
}

uint8_t TemporalCanonicalMask(const std::string& text) {
  uint8_t mask = 0;
  if (auto d = ParseDate(text); d.ok() && FormatDate(*d) == text) {
    mask |= 1;
  }
  if (auto t = ParseTime(text); t.ok() && FormatTime(*t) == text) {
    mask |= 2;
  }
  if (auto ts = ParseTimestamp(text);
      ts.ok() && FormatTimestamp(*ts) == text) {
    mask |= 4;
  }
  return mask;
}

}  // namespace hyperq::sql
