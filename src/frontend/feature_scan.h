// Token-level detection of Translation-class features (paper §2.1).
//
// Translation rewrites are "highly localized; many can be even addressed
// with textual substitution" — correspondingly they are detectable from the
// token stream alone, before parsing. The binder/transformer/emulation
// layers record the Transformation- and Emulation-class features.

#pragma once

#include <string>
#include <vector>

#include "common/features.h"
#include "common/result.h"
#include "sql/lexer.h"

namespace hyperq::frontend {

/// \brief Records the Translation-class tracked features that the token
/// stream of one SQL-A statement or script uses into `features`. The
/// translation pipeline passes the stream it then parses, so a cache miss
/// lexes SQL-A once.
Status ScanTranslationFeatures(const std::vector<sql::Token>& tokens,
                               FeatureSet* features);

}  // namespace hyperq::frontend
