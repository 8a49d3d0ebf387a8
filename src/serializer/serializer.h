// The Serializer (paper §4.4): synthesizes target-dialect SQL text from an
// XTRA expression.
//
// Each target database has its own Serializer configuration; all share one
// interface (XTRA in, SQL out). Serialization walks the XTRA tree,
// assembling one SELECT block per "stack" of compatible operators and
// falling back to derived tables whenever SQL's single-block structure
// cannot express the stack (e.g. filtering on window results).

#pragma once

#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "serializer/dialect.h"
#include "transform/backend_profile.h"
#include "xtra/xtra.h"

namespace hyperq::serializer {

/// \brief Where a constant tagged with a SQL-A literal offset
/// (xtra::Expr::literal_offset, or a TOP/LIMIT n: xtra::Op::limit_offset)
/// landed in the serialized SQL-B.
struct LiteralSite {
  int literal_offset = -1;
  size_t begin = 0;  // byte range of the constant's rendering in SQL-B
  size_t end = 0;
};

/// Control bytes that bracket tagged constants while Serialize() records
/// sites; they are stripped before the text is returned. A caller whose
/// SQL-A contains either byte must not ask for sites.
inline constexpr char kSiteOpen = '\x01';
inline constexpr char kSiteClose = '\x02';
inline constexpr char kSiteMarkerBytes[] = "\x01\x02";

/// \brief XTRA → SQL-B text for one target profile.
///
/// The serializer assumes capability-dependent rewrites already ran
/// (transform::Stage::kSerialization); encountering a construct the target
/// cannot express (e.g. a recursive CTE wrapper) is an error, not a silent
/// downgrade.
class Serializer {
 public:
  explicit Serializer(const transform::BackendProfile& profile);

  /// \brief Renders a full statement (query or DML). When `sites` is
  /// non-null it receives, in textual order, the SQL-B byte range of every
  /// constant that carries a literal tag (and of each row-limit clause
  /// whose n came from a TOP/LIMIT literal); it is left empty if a
  /// rendered constant or identifier contains a marker byte itself.
  Result<std::string> Serialize(
      const xtra::Op& plan,
      std::vector<LiteralSite>* sites = nullptr) const;

  const transform::BackendProfile& profile() const { return profile_; }

  /// \brief The dialect generator resolved from `profile.dialect` (the
  /// "ansi" default when the profile names no registered dialect).
  const SQLDialectGenerator& dialect() const { return *dialect_; }

 private:
  /// Col id -> SQL text that evaluates it in the current scope. A block's
  /// map is layered over its enclosing scope's instead of copying it; a
  /// lookup tries this layer first, newest entry first.
  class NameMap {
   public:
    explicit NameMap(const NameMap* outer = nullptr) : outer_(outer) {}
    void Set(int id, std::string text) {
      own_.emplace_back(id, std::move(text));
    }
    const std::string* Find(int id) const;

   private:
    const NameMap* outer_;
    std::vector<std::pair<int, std::string>> own_;
  };

  /// Per-call rendering state (the serializer itself is shared and const).
  struct RenderState {
    int aliases = 0;             // derived-table alias counter (T1, T2, ...)
    bool mark_literals = false;  // bracket tagged constants with markers
    bool marker_clash = false;   // rendered text held a marker byte
  };

  // Every Render* appends its SQL text to `out`; Serialize() passes one
  // buffer down the whole tree. RenderQuery returns the block's outputs
  // with the names it emitted for them.
  Result<std::vector<xtra::ColumnInfo>> RenderQuery(
      const xtra::Op& op, const NameMap& outer, RenderState* state,
      std::string* out) const;
  Status RenderFromItem(const xtra::Op& op, const NameMap& outer,
                        NameMap* scope, RenderState* state,
                        std::string* out) const;
  Status RenderExpr(const xtra::Expr& e, const NameMap& scope,
                    RenderState* state, std::string* out) const;
  Status RenderWindowCall(const xtra::WindowItem& item, const NameMap& scope,
                          RenderState* state, std::string* out) const;
  /// `arg` is null for COUNT(*).
  Status RenderAggCall(const std::string& func, bool distinct,
                       const xtra::Expr* arg, const NameMap& scope,
                       RenderState* state, std::string* out) const;
  /// ORDER BY of a block whose select list emitted `out_cols`.
  Status RenderOrderBy(const xtra::Op& sort,
                       const std::vector<xtra::ColumnInfo>& out_cols,
                       const NameMap& scope, RenderState* state,
                       std::string* out) const;

  Status Render(const xtra::Op& plan, RenderState* state,
                std::string* out) const;
  Status RenderInsert(const xtra::Op& op, RenderState* state,
                      std::string* out) const;
  Status RenderUpdate(const xtra::Op& op, RenderState* state,
                      std::string* out) const;
  Status RenderDelete(const xtra::Op& op, RenderState* state,
                      std::string* out) const;

  // Surface syntax delegates to the active dialect generator.
  std::string QuoteIdent(const std::string& name, RenderState* state) const;
  /// The dialect's row-limit clause for a kLimit op; marked as a site of
  /// the TOP/LIMIT literal when recording sites.
  void RenderRowLimit(const xtra::Op& limit, RenderState* state,
                      std::string* out) const;

  transform::BackendProfile profile_;
  const SQLDialectGenerator* dialect_;  // registry-owned, never null
};

}  // namespace hyperq::serializer
