// ResultStore (paper §4.6): buffers result batches when the frontend
// protocol cannot stream (e.g. it must announce the total row count first).
// In memory a batch is a zero-copy span of the executor's ColumnBatch;
// batches beyond a memory budget are encoded as TDF and spill to temporary
// files, which are kept until the result is fully consumed and then
// removed.
//
// When attached to a ResourceGovernor (DESIGN.md §8) the store reserves
// every buffered byte against the shared budgets and applies the
// shed-or-spill policy: a batch denied proxy memory spills to disk instead,
// and a batch denied spill-disk budget sheds the query with a typed
// kResourceExhausted. Spill writes are checked end to end (write AND close);
// a failed spill removes the partial file and surfaces kIoError rather than
// silently losing the batch.

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "backend/tdf.h"
#include "common/resource_governor.h"
#include "common/result.h"
#include "vdb/column_batch.h"

namespace hyperq::backend {

/// \brief A view over rows [offset, offset+rows) of a shared ColumnBatch —
/// the unit the batch data plane moves between connector, store and
/// converter without re-materializing rows.
struct BatchSpan {
  std::shared_ptr<const vdb::ColumnBatch> batch;
  size_t offset = 0;
  size_t rows = 0;
};

/// \brief Bounded in-memory buffer of result batches with disk spill.
///
/// Batches are held columnar (BatchSpan, zero-copy); spilled spans are
/// serialized as TDF and decoded back to batches on scan.
class ResultStore {
 public:
  /// \param memory_budget_bytes in-memory cap before spilling
  /// \param spill_dir directory for spill files (created lazily); empty
  ///        uses the system temp directory, looked up on the first spill
  /// \param governor optional shared budget arbiter; reserved bytes are
  ///        released by Release()/the destructor
  /// \param session_tag attribution key for per-session governor budgets
  ///        (0 = unattributed)
  explicit ResultStore(size_t memory_budget_bytes = 16 << 20,
                       std::string spill_dir = "",
                       std::shared_ptr<ResourceGovernor> governor = nullptr,
                       uint64_t session_tag = 0);
  ~ResultStore();

  ResultStore(const ResultStore&) = delete;
  ResultStore& operator=(const ResultStore&) = delete;
  // Moving would double-release governor reservations; stores live behind
  // shared_ptr anyway.
  ResultStore(ResultStore&&) = delete;

  /// \brief Schema used to serialize spans on spill; must be set before
  /// the first AppendBatch that may spill.
  void set_schema(std::vector<TdfColumn> schema) {
    schema_ = std::move(schema);
  }
  const std::vector<TdfColumn>& schema() const { return schema_; }

  /// \brief Appends a columnar span. Policy: memory if both the local
  /// budget and the governor admit it, else spill (governor-bounded), else
  /// shed (kResourceExhausted). In memory the span is held zero-copy
  /// (charged at its heap size); a spilled span is encoded as TDF and
  /// charged at its encoded size. Spill I/O failures surface as kIoError.
  Status AppendBatch(std::shared_ptr<const vdb::ColumnBatch> batch,
                     size_t offset, size_t rows);

  int64_t total_rows() const { return total_rows_; }
  size_t batch_count() const { return in_memory_.size(); }
  size_t spilled_batches() const { return spilled_files_; }
  size_t memory_bytes() const { return memory_bytes_; }
  /// \brief Bytes currently spilled to disk by this store.
  int64_t spilled_bytes() const { return spilled_bytes_; }

  /// \brief The store's only batch when it holds exactly one, in memory;
  /// else null. A one-batch result is read through it without a scan.
  const BatchSpan* SoleSpan() const {
    return in_memory_.size() == 1 && in_memory_[0].path.empty()
               ? &in_memory_[0].span
               : nullptr;
  }

  /// \brief Visits every batch in append order as columnar spans (spilled
  /// batches are read back from disk and decoded). Repeated scans are
  /// valid.
  Status ScanSpans(const std::function<Status(const BatchSpan&)>& fn) const;

  /// \brief Deletes spill files and returns every reserved byte to the
  /// governor; idempotent; called by the destructor.
  void Release();

 private:
  struct Slot {
    BatchSpan span;    // when in memory
    std::string path;  // when spilled (non-empty)
    size_t size = 0;   // encoded bytes of a spilled batch
  };

  Status SpillBatch(const std::vector<uint8_t>& batch, Slot* slot);

  std::vector<TdfColumn> schema_;
  size_t memory_budget_;
  std::string spill_dir_;
  std::shared_ptr<ResourceGovernor> governor_;
  uint64_t session_tag_ = 0;
  std::vector<Slot> in_memory_;  // all slots, in append order
  size_t memory_bytes_ = 0;
  size_t spilled_files_ = 0;
  int64_t spilled_bytes_ = 0;
  int64_t total_rows_ = 0;
  int64_t next_file_ = 0;
};

}  // namespace hyperq::backend
