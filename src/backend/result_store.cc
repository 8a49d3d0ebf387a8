#include "backend/result_store.h"

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <system_error>

#include "common/fault.h"

namespace hyperq::backend {

namespace {
std::atomic<int64_t> g_store_counter{0};
}

ResultStore::ResultStore(size_t memory_budget_bytes, std::string spill_dir,
                         std::shared_ptr<ResourceGovernor> governor,
                         uint64_t session_tag)
    : memory_budget_(memory_budget_bytes),
      spill_dir_(std::move(spill_dir)),
      governor_(std::move(governor)),
      session_tag_(session_tag) {}

ResultStore::~ResultStore() { Release(); }

Status ResultStore::Append(std::vector<uint8_t> batch, size_t row_count) {
  total_rows_ += static_cast<int64_t>(row_count);
  Slot slot;
  slot.size = batch.size();

  // Shed-or-spill policy: memory first (local budget AND governor), then
  // disk (governor spill budget), then a typed shed.
  bool fits_local =
      batch.empty() || memory_bytes_ + batch.size() <= memory_budget_;
  bool use_memory = fits_local;
  if (use_memory && governor_ && !batch.empty()) {
    use_memory = governor_
                     ->ReserveMemory(session_tag_,
                                     static_cast<int64_t>(batch.size()))
                     .ok();
  }

  if (use_memory) {
    memory_bytes_ += batch.size();
    slot.bytes = std::move(batch);
  } else {
    HQ_FAULT_POINT(faultpoints::kStoreSpill);
    if (governor_) {
      Status reserved =
          governor_->ReserveSpill(static_cast<int64_t>(batch.size()));
      if (!reserved.ok()) {
        governor_->NoteShed();
        return reserved.WithContext("result shed: spill budget denied");
      }
    }
    Status spilled = SpillBatch(batch, &slot);
    if (!spilled.ok()) {
      if (governor_) {
        governor_->ReleaseSpill(static_cast<int64_t>(batch.size()));
      }
      return spilled;
    }
    ++spilled_files_;
    spilled_bytes_ += static_cast<int64_t>(batch.size());
  }
  in_memory_.push_back(std::move(slot));
  return Status::OK();
}

Status ResultStore::AppendBatch(
    std::shared_ptr<const vdb::ColumnBatch> batch, size_t offset,
    size_t rows) {
  total_rows_ += static_cast<int64_t>(rows);
  size_t charge = 0;
  for (const auto& col : batch->columns) {
    charge += col->ByteSize(offset, offset + rows);
  }

  Slot slot;
  bool fits_local = charge == 0 || memory_bytes_ + charge <= memory_budget_;
  bool use_memory = fits_local;
  if (use_memory && governor_ && charge > 0) {
    use_memory =
        governor_->ReserveMemory(session_tag_, static_cast<int64_t>(charge))
            .ok();
  }

  if (use_memory) {
    memory_bytes_ += charge;
    slot.is_span = true;
    slot.size = charge;
    slot.span = BatchSpan{std::move(batch), offset, rows};
    in_memory_.push_back(std::move(slot));
    return Status::OK();
  }

  // Denied memory: serialize the span as TDF2 and take the spill path so
  // the governor accounting stays byte-exact against the file size.
  HQ_FAULT_POINT(faultpoints::kStoreSpill);
  std::vector<uint8_t> encoded = EncodeTdfBatch(schema_, *batch, offset, rows);
  if (governor_) {
    Status reserved =
        governor_->ReserveSpill(static_cast<int64_t>(encoded.size()));
    if (!reserved.ok()) {
      governor_->NoteShed();
      return reserved.WithContext("result shed: spill budget denied");
    }
  }
  slot.size = encoded.size();
  Status spilled = SpillBatch(encoded, &slot);
  if (!spilled.ok()) {
    if (governor_) {
      governor_->ReleaseSpill(static_cast<int64_t>(encoded.size()));
    }
    return spilled;
  }
  ++spilled_files_;
  spilled_bytes_ += static_cast<int64_t>(encoded.size());
  in_memory_.push_back(std::move(slot));
  return Status::OK();
}

Status ResultStore::SpillBatch(const std::vector<uint8_t>& batch, Slot* slot) {
  // Resolved on the first spill, not per store: almost no result spills,
  // and the lookup stats the directory.
  if (spill_dir_.empty()) {
    std::error_code ec;
    spill_dir_ = std::filesystem::temp_directory_path(ec).string();
    if (ec) {
      spill_dir_.clear();
      return Status::IoError("no temp directory for spill files: ",
                             ec.message());
    }
  }
  std::string path = spill_dir_ + "/hyperq_spill_" +
                     std::to_string(g_store_counter.fetch_add(1)) + "_" +
                     std::to_string(next_file_++) + ".tdf";
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::IoError("cannot create spill file ", path);
  }
  Status write_ok = FaultInjector::Global().Check(faultpoints::kStoreSpillWrite);
  if (write_ok.ok()) {
    out.write(reinterpret_cast<const char*>(batch.data()),
              static_cast<std::streamsize>(batch.size()));
    if (!out) {
      write_ok = Status::IoError("short write to spill file ", path,
                                 " (disk full?)");
    }
  }
  if (write_ok.ok()) {
    // A buffered write can succeed while the flush at close fails (ENOSPC,
    // EIO); an unchecked close here is how a spill silently loses a batch.
    out.close();
    if (out.fail()) {
      write_ok = Status::IoError("close failed for spill file ", path,
                                 " (flush error, disk full?)");
    }
  }
  if (!write_ok.ok()) {
    out.close();
    std::remove(path.c_str());
    return write_ok.code() == StatusCode::kIoError
               ? write_ok
               : Status::IoError(write_ok.message()).WithContext(
                     "spill write failed for " + path);
  }
  slot->spilled = true;
  slot->path = std::move(path);
  return Status::OK();
}

Status ResultStore::Scan(
    const std::function<Status(const std::vector<uint8_t>&)>& fn) const {
  for (const Slot& slot : in_memory_) {
    if (slot.is_span) {
      // Legacy consumers see span slots as freshly encoded TDF2 batches.
      std::vector<uint8_t> encoded = EncodeTdfBatch(
          schema_, *slot.span.batch, slot.span.offset, slot.span.rows);
      HQ_RETURN_IF_ERROR(fn(encoded));
      continue;
    }
    if (!slot.spilled) {
      HQ_RETURN_IF_ERROR(fn(slot.bytes));
      continue;
    }
    std::ifstream in(slot.path, std::ios::binary);
    if (!in) {
      return Status::IoError("cannot reopen spill file ", slot.path);
    }
    std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                               std::istreambuf_iterator<char>());
    if (bytes.size() != slot.size) {
      return Status::IoError("truncated spill file ", slot.path, " (",
                             bytes.size(), " of ", slot.size, " bytes)");
    }
    HQ_RETURN_IF_ERROR(fn(bytes));
  }
  return Status::OK();
}

Status ResultStore::ScanSpans(
    const std::function<Status(const BatchSpan&)>& fn) const {
  for (const Slot& slot : in_memory_) {
    if (slot.is_span) {
      HQ_RETURN_IF_ERROR(fn(slot.span));
      continue;
    }
    std::vector<uint8_t> bytes;
    if (!slot.spilled) {
      bytes = slot.bytes;
    } else {
      std::ifstream in(slot.path, std::ios::binary);
      if (!in) {
        return Status::IoError("cannot reopen spill file ", slot.path);
      }
      bytes.assign((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
      if (bytes.size() != slot.size) {
        return Status::IoError("truncated spill file ", slot.path, " (",
                               bytes.size(), " of ", slot.size, " bytes)");
      }
    }
    HQ_ASSIGN_OR_RETURN(TdfReader reader, TdfReader::Open(std::move(bytes)));
    HQ_ASSIGN_OR_RETURN(std::shared_ptr<const vdb::ColumnBatch> batch,
                        reader.ReadBatch());
    BatchSpan span{batch, 0, batch->rows};
    HQ_RETURN_IF_ERROR(fn(span));
  }
  return Status::OK();
}

void ResultStore::Release() {
  for (Slot& slot : in_memory_) {
    if (slot.spilled && !slot.path.empty()) {
      std::remove(slot.path.c_str());
      slot.path.clear();
    }
  }
  in_memory_.clear();
  if (governor_) {
    governor_->ReleaseMemory(session_tag_,
                             static_cast<int64_t>(memory_bytes_));
    governor_->ReleaseSpill(spilled_bytes_);
  }
  memory_bytes_ = 0;
  spilled_bytes_ = 0;
}

}  // namespace hyperq::backend
