#include "frontend/feature_scan.h"

#include "sql/lexer.h"

namespace hyperq::frontend {

Status ScanTranslationFeatures(const std::vector<sql::Token>& tokens,
                               FeatureSet* features) {
  bool statement_start = true;
  for (size_t i = 0; i < tokens.size(); ++i) {
    const sql::Token& t = tokens[i];
    if (t.kind == sql::TokenKind::kEof) break;
    if (t.IsOp(";")) {
      statement_start = true;
      continue;
    }
    if (t.kind == sql::TokenKind::kIdent) {
      const std::string& kw = t.upper;
      if (statement_start) {
        if (kw == "SEL") features->Record(Feature::kSelAbbrev);
        if (kw == "INS") features->Record(Feature::kInsAbbrev);
        if (kw == "UPD") features->Record(Feature::kUpdAbbrev);
        if (kw == "DEL") features->Record(Feature::kDelAbbrev);
        if (kw == "BT" || kw == "ET") {
          features->Record(Feature::kTxnShorthand);
        }
        if (kw == "COLLECT") features->Record(Feature::kStatsElimination);
      }
      bool is_call = tokens[i + 1].IsOp("(");
      if (is_call && (kw == "CHARS" || kw == "CHARACTERS" || kw == "INDEX")) {
        features->Record(Feature::kBuiltinRename);
      }
      if (is_call && (kw == "ZEROIFNULL" || kw == "NULLIFZERO")) {
        features->Record(Feature::kNullFuncs);
      }
      if (kw == "TOP" && tokens[i + 1].kind == sql::TokenKind::kInteger) {
        features->Record(Feature::kTopToLimit);
      }
    }
    statement_start = false;
  }
  return Status::OK();
}

}  // namespace hyperq::frontend
