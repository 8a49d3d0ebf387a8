// Column-at-a-time executor running XTRA plans against vdb storage
// (DESIGN.md §15).
//
// Every operator consumes and emits ColumnBatch chunks; there is one
// implementation per operator. Operators materialize their results (the
// evaluation workloads fit in memory at benchmark scale). Expressions are
// evaluated a column at a time, with a tree-walking interpreter over Datum
// (SQL three-valued logic) as the per-expression fallback. Correlated
// subqueries run their subplans on the same operators, once per distinct
// outer binding: an outer column a chunk does not carry is a constant.

#pragma once

#include <map>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/result.h"
#include "vdb/storage.h"
#include "xtra/xtra.h"

namespace hyperq::vdb {

/// \brief A materialized intermediate result: shared, immutable chunks
/// that operators alias instead of copying.
struct Relation {
  std::vector<xtra::ColumnInfo> cols;
  std::map<int, int> layout;  // col id -> slot index
  std::vector<std::shared_ptr<const ColumnBatch>> chunks;

  void BuildLayout() {
    layout.clear();
    for (size_t i = 0; i < cols.size(); ++i) {
      layout[cols[i].id] = static_cast<int>(i);
    }
  }

  size_t RowCount() const;
  /// \brief Concatenates `chunks` to a single batch (one empty column per
  /// slot when there are none).
  std::shared_ptr<const ColumnBatch> SingleChunk() const;
};

/// \brief Executes plans; holds the storage reference and the correlation
/// stack for subquery evaluation.
class Executor {
 public:
  explicit Executor(Storage* storage) : storage_(storage) {}

  /// \brief Runs a query plan and returns the result relation.
  Result<Relation> Execute(const xtra::Op& op);

  /// \brief Runs a DML plan; returns the number of affected rows.
  Result<int64_t> ExecuteDml(const xtra::Op& op);

  /// One evaluated expression over a chunk: either a column of the chunk's
  /// row count or a broadcast scalar constant. Public so executor_vec.cc's
  /// file-local kernels can operate on it; not part of the stable API.
  struct VecVal {
    std::shared_ptr<const ColumnVec> col;
    bool is_const = false;
    Datum scalar;
  };

 private:
  struct OuterScope {
    const std::map<int, int>* layout;
    const Row* row;
  };

  Result<Relation> Exec(const xtra::Op& op);
  Result<Relation> ExecDispatch(const xtra::Op& op);
  Result<Relation> ExecGet(const xtra::Op& op);
  Result<Relation> ExecValues(const xtra::Op& op);

  // --- Operators (executor_vec.cc) ---------------------------------------
  Result<Relation> ExecSelect(const xtra::Op& op);
  Result<Relation> ExecProject(const xtra::Op& op);
  Result<Relation> ExecWindow(const xtra::Op& op);
  Result<Relation> ExecAggregate(const xtra::Op& op);
  Result<Relation> ExecJoin(const xtra::Op& op);
  Result<Relation> ExecSetOp(const xtra::Op& op);
  Result<Relation> ExecSort(const xtra::Op& op);
  Result<Relation> ExecLimit(const xtra::Op& op);

  /// Evaluation context for one chunk; caches lazily materialized rows for
  /// expression shapes that fall back to the tree-walking interpreter. Rows
  /// are filled slot by slot: only the columns a fallback expression reads
  /// are boxed into Datums (`slot_ready` tracks which), unless an expression
  /// contains a subquery — then the whole row is materialized because the
  /// subplan can read any column through the outer-scope chain.
  struct VecCtx {
    const ColumnBatch* batch = nullptr;
    const std::map<int, int>* layout = nullptr;
    std::vector<Row> lazy_rows;
    std::vector<uint8_t> slot_ready;  // per-slot fill flag
    bool rows_ready = false;          // every slot filled
  };

  Result<VecVal> EvalExprVec(const xtra::Expr& e, VecCtx& ctx);
  Result<VecVal> EvalExprVecFallback(const xtra::Expr& e, VecCtx& ctx);
  Result<std::shared_ptr<const ColumnVec>> MaterializeVec(const VecVal& v,
                                                          size_t n);
  /// Indices of the rows of `batch` for which `pred` is true (NULL counts
  /// as false).
  Result<std::vector<uint32_t>> FilterIndices(const xtra::Expr& pred,
                                              const ColumnBatch& batch,
                                              const std::map<int, int>& layout);

  Result<Datum> EvalExpr(const xtra::Expr& e, const std::map<int, int>& layout,
                         const Row& row);
  Result<Datum> EvalFunc(const xtra::Expr& e, const std::map<int, int>& layout,
                         const Row& row);
  Result<Datum> EvalArith(const xtra::Expr& e,
                          const std::map<int, int>& layout, const Row& row);
  /// One executed subquery result, reusable across probe values. For IN
  /// subqueries an exact-match hash index over the first output column is
  /// built when every non-null value is one of the exact kinds (int64,
  /// string) — for those a hit/miss is equivalent to the Compare loop, so
  /// the index can never change the answer; mixed or approximate kinds
  /// keep the loop.
  struct PreparedSubq {
    std::shared_ptr<const ColumnBatch> batch;  // the subplan's result
    bool exists = false;
    bool saw_null = false;  // NULL among the first-column values
    enum class Index { kNone, kI64, kStr } index = Index::kNone;
    std::unordered_set<int64_t> i64s;
    std::unordered_set<std::string> strs;
  };

  Result<Datum> EvalSubquery(const xtra::Expr& e,
                             const std::map<int, int>& layout, const Row& row);
  Result<Datum> EvalSubqueryUncached(const xtra::Expr& e,
                                     const std::map<int, int>& layout,
                                     const Row& row);
  Result<PreparedSubq> PrepareSubquery(const xtra::Expr& e,
                                       const std::map<int, int>& layout,
                                       const Row& row, bool build_index);
  Result<Datum> EvalSubqueryOverPrepared(const xtra::Expr& e,
                                         const PreparedSubq& prep,
                                         const std::map<int, int>& layout,
                                         const Row& row);

  /// Truth test for predicates: NULL counts as false.
  Result<bool> EvalPredicate(const xtra::Expr& e,
                             const std::map<int, int>& layout, const Row& row);

  /// True when every column reference below `op` is produced inside it
  /// (no correlation) — such subtrees can be cached across re-executions.
  static bool IsCorrelationFree(const xtra::Op& op);

  Storage* storage_;
  std::vector<OuterScope> outer_;

  // --- Subquery acceleration -------------------------------------------
  // Correlated subqueries re-execute per outer row; three caches keep that
  // tractable: (1) whole-result memoization keyed on the referenced outer
  // values, (2) relation caching for correlation-free subtrees, and
  // (3) hash indexes for Select-over-Get with an equality against an outer
  // value.
  struct VecHashT {
    size_t operator()(const std::vector<Datum>& v) const;
  };
  struct VecEqT {
    bool operator()(const std::vector<Datum>& a,
                    const std::vector<Datum>& b) const;
  };
  struct SubqInfo {
    std::vector<int> outer_ids;  // outer column ids the subplan reads
    std::unordered_map<std::vector<Datum>, Datum, VecHashT, VecEqT> memo;
    // Subplan results memoized by the outer values alone: an IN/quantified
    // subquery is keyed on (outer values, probe value) in `memo`, so
    // without this every distinct probe value would re-execute the whole
    // subplan instead of re-probing one prepared result.
    std::unordered_map<std::vector<Datum>, PreparedSubq, VecHashT, VecEqT>
        rel_memo;
  };
  struct DatumHashT {
    size_t operator()(const Datum& d) const { return d.Hash(); }
  };
  struct DatumEqT {
    bool operator()(const Datum& a, const Datum& b) const {
      return Datum::GroupEquals(a, b);
    }
  };
  struct SelectIndex {
    int key_slot = -1;                      // slot in the Get output
    const xtra::Expr* outer_key = nullptr;  // outer-only key expression
    /// The table's columnar snapshot and its non-NULL key buckets (row
    /// indices into it). The query executor never mutates storage, so the
    /// snapshot is the table for this executor's lifetime.
    std::shared_ptr<const ColumnBatch> snapshot;
    std::unordered_map<Datum, std::vector<uint32_t>, DatumHashT, DatumEqT>
        buckets;
  };

  /// Inside a correlated subquery, a Select over a Get with an equality
  /// between a table column and an outer-only expression probes a cached
  /// hash index instead of scanning the table per outer binding. Fills
  /// `out` with the Get rows of the probed key and returns true, or returns
  /// false when `op` does not have that shape.
  Result<bool> ProbeSelectIndex(const xtra::Op& op, Relation* out);

  Result<Datum> ResolveColRef(int col_id, const std::map<int, int>& layout,
                              const Row& row, const std::string& name);

  std::map<const xtra::Expr*, std::unique_ptr<SubqInfo>> subq_info_;
  std::map<const xtra::Op*, std::unique_ptr<SelectIndex>> select_indexes_;
  std::map<const xtra::Op*, std::shared_ptr<Relation>> relation_cache_;
  std::map<const xtra::Op*, bool> correlation_free_;
};

/// \brief Ordering comparator used by Sort, Window and merge logic.
/// Returns <0, 0, >0 in final output order; `nulls_first` follows SQL
/// NULLS FIRST/LAST semantics (vdb default: NULLs sort high).
int CompareForSort(const Datum& a, const Datum& b, bool descending,
                   bool nulls_first);

}  // namespace hyperq::vdb
