#include "common/resource_governor.h"

namespace hyperq {

ResourceGovernor::ResourceGovernor(ResourceGovernorOptions options)
    : options_(options) {}

Status ResourceGovernor::ReserveMemory(uint64_t session_tag, int64_t bytes) {
  if (bytes <= 0) return Status::OK();
  std::lock_guard<std::mutex> lock(mutex_);
  if (options_.global_memory_bytes > 0 &&
      memory_bytes_ + bytes > options_.global_memory_bytes) {
    ++memory_denials_;
    return Status::ResourceExhausted(
        "governor: global memory budget exhausted (",
        memory_bytes_, " + ", bytes, " > ", options_.global_memory_bytes,
        " bytes)");
  }
  if (session_tag != 0 && options_.session_memory_bytes > 0) {
    int64_t session_used = 0;
    auto it = session_memory_.find(session_tag);
    if (it != session_memory_.end()) session_used = it->second;
    if (session_used + bytes > options_.session_memory_bytes) {
      ++memory_denials_;
      return Status::ResourceExhausted(
          "governor: session ", session_tag, " memory budget exhausted (",
          session_used, " + ", bytes, " > ", options_.session_memory_bytes,
          " bytes)");
    }
  }
  memory_bytes_ += bytes;
  if (memory_bytes_ > peak_memory_bytes_) peak_memory_bytes_ = memory_bytes_;
  if (session_tag != 0) session_memory_[session_tag] += bytes;
  return Status::OK();
}

void ResourceGovernor::ReleaseMemory(uint64_t session_tag, int64_t bytes) {
  if (bytes <= 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  memory_bytes_ -= bytes;
  if (memory_bytes_ < 0) memory_bytes_ = 0;
  if (session_tag != 0) {
    auto it = session_memory_.find(session_tag);
    if (it != session_memory_.end()) {
      it->second -= bytes;
      if (it->second <= 0) session_memory_.erase(it);
    }
  }
}

Status ResourceGovernor::ReserveSpill(int64_t bytes) {
  if (bytes <= 0) return Status::OK();
  std::lock_guard<std::mutex> lock(mutex_);
  if (options_.spill_disk_bytes > 0 &&
      spill_bytes_ + bytes > options_.spill_disk_bytes) {
    ++spill_denials_;
    return Status::ResourceExhausted(
        "governor: spill disk budget exhausted (", spill_bytes_, " + ", bytes,
        " > ", options_.spill_disk_bytes, " bytes)");
  }
  spill_bytes_ += bytes;
  total_spill_bytes_ += bytes;
  return Status::OK();
}

void ResourceGovernor::ReleaseSpill(int64_t bytes) {
  if (bytes <= 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  spill_bytes_ -= bytes;
  if (spill_bytes_ < 0) spill_bytes_ = 0;
}

void ResourceGovernor::NoteShed() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++shed_queries_;
}

ResourceGovernorStats ResourceGovernor::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  ResourceGovernorStats s;
  s.memory_bytes = memory_bytes_;
  s.spill_bytes = spill_bytes_;
  s.peak_memory_bytes = peak_memory_bytes_;
  s.total_spill_bytes = total_spill_bytes_;
  s.memory_denials = memory_denials_;
  s.spill_denials = spill_denials_;
  s.shed_queries = shed_queries_;
  return s;
}

}  // namespace hyperq
