// Byte-buffer primitives shared by the wire protocol and TDF codecs.
//
// All multi-byte integers are little-endian on the wire (both tdwp and TDF
// declare little-endian layouts; see protocol/ and backend/tdf.h).

#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace hyperq {

/// \brief Growable little-endian byte sink.
class BufferWriter {
 public:
  void PutU8(uint8_t v) { bytes_.push_back(v); }
  void PutU16(uint16_t v) { PutLE(&v, 2); }
  void PutU32(uint32_t v) { PutLE(&v, 4); }
  void PutU64(uint64_t v) { PutLE(&v, 8); }
  void PutI8(int8_t v) { PutU8(static_cast<uint8_t>(v)); }
  void PutI16(int16_t v) { PutU16(static_cast<uint16_t>(v)); }
  void PutI32(int32_t v) { PutU32(static_cast<uint32_t>(v)); }
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  void PutF64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, 8);
    PutU64(bits);
  }
  void PutBytes(const void* data, size_t n) {
    const auto* p = static_cast<const uint8_t*>(data);
    bytes_.insert(bytes_.end(), p, p + n);
  }
  /// Length-prefixed (u32) byte string.
  void PutLenBytes(std::string_view s) {
    PutU32(static_cast<uint32_t>(s.size()));
    PutBytes(s.data(), s.size());
  }

  /// \brief Overwrites 4 bytes at `offset` (for back-patching length fields).
  void PatchU32(size_t offset, uint32_t v) {
    std::memcpy(bytes_.data() + offset, &v, 4);
  }

  void Reserve(size_t n) { bytes_.reserve(n); }
  /// \brief Appends `n` zero bytes and returns where they start, for
  /// encoders that fill a region out of order. The pointer is valid until
  /// the next append.
  uint8_t* Extend(size_t n) {
    size_t at = bytes_.size();
    bytes_.resize(at + n);
    return bytes_.data() + at;
  }

  size_t size() const { return bytes_.size(); }
  const uint8_t* data() const { return bytes_.data(); }
  std::vector<uint8_t> Take() { return std::move(bytes_); }
  const std::vector<uint8_t>& bytes() const { return bytes_; }

 private:
  void PutLE(const void* v, size_t n) {
    // Host is little-endian on all supported platforms (x86-64/aarch64).
    PutBytes(v, n);
  }

  std::vector<uint8_t> bytes_;
};

/// \brief Bounds-checked little-endian byte source.
class BufferReader {
 public:
  BufferReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit BufferReader(const std::vector<uint8_t>& v)
      : BufferReader(v.data(), v.size()) {}

  size_t remaining() const { return size_ - pos_; }
  size_t position() const { return pos_; }
  bool AtEnd() const { return pos_ == size_; }

  Result<uint8_t> GetU8() { return Get<uint8_t>(); }
  Result<uint16_t> GetU16() { return Get<uint16_t>(); }
  Result<uint32_t> GetU32() { return Get<uint32_t>(); }
  Result<uint64_t> GetU64() { return Get<uint64_t>(); }
  Result<int8_t> GetI8() { return Get<int8_t>(); }
  Result<int16_t> GetI16() { return Get<int16_t>(); }
  Result<int32_t> GetI32() { return Get<int32_t>(); }
  Result<int64_t> GetI64() { return Get<int64_t>(); }
  Result<double> GetF64() {
    HQ_ASSIGN_OR_RETURN(uint64_t bits, GetU64());
    double v;
    std::memcpy(&v, &bits, 8);
    return v;
  }

  /// Borrows the next `n` bytes in place (no copy); the pointer lives as
  /// long as the underlying buffer.
  Result<const uint8_t*> GetSpan(size_t n) {
    if (remaining() < n) {
      return Status::ProtocolError("buffer underrun: need ", n, " bytes, have ",
                                   remaining());
    }
    const uint8_t* p = data_ + pos_;
    pos_ += n;
    return p;
  }

  Result<std::string> GetBytes(size_t n) {
    HQ_ASSIGN_OR_RETURN(const uint8_t* p, GetSpan(n));
    return std::string(reinterpret_cast<const char*>(p), n);
  }

  /// Length-prefixed (u32) byte string.
  Result<std::string> GetLenBytes() {
    HQ_ASSIGN_OR_RETURN(uint32_t n, GetU32());
    return GetBytes(n);
  }

  Status Skip(size_t n) {
    if (remaining() < n) return Status::ProtocolError("skip past end");
    pos_ += n;
    return Status::OK();
  }

 private:
  template <typename T>
  Result<T> Get() {
    if (remaining() < sizeof(T)) {
      return Status::ProtocolError("buffer underrun reading ", sizeof(T),
                                   " bytes at ", pos_);
    }
    T v;
    std::memcpy(&v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace hyperq
