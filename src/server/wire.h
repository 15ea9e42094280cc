#ifndef MDS_SERVER_WIRE_H_
#define MDS_SERVER_WIRE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/status.h"

namespace mds {

/// Append-only little-endian encoder for protocol payloads. All multi-byte
/// fields go through memcpy so the codec is alignment- and
/// strict-aliasing-safe; the library already assumes a little-endian host
/// (storage pages are memcpy'd), so the wire format matches the host
/// format byte for byte.
class WireWriter {
 public:
  explicit WireWriter(std::vector<uint8_t>* out) : out_(out) {}

  void PutU8(uint8_t v) { out_->push_back(v); }
  void PutU16(uint16_t v) { PutRaw(&v, sizeof(v)); }
  void PutU32(uint32_t v) { PutRaw(&v, sizeof(v)); }
  void PutU64(uint64_t v) { PutRaw(&v, sizeof(v)); }
  void PutI64(int64_t v) { PutRaw(&v, sizeof(v)); }
  void PutF64(double v) { PutRaw(&v, sizeof(v)); }

  void PutString(const std::string& s) {
    PutU32(static_cast<uint32_t>(s.size()));
    PutRaw(s.data(), s.size());
  }

  template <typename T>
  void PutPodVector(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    PutU64(v.size());
    PutRaw(v.data(), v.size() * sizeof(T));
  }

  void PutRaw(const void* data, size_t n) {
    const uint8_t* p = static_cast<const uint8_t*>(data);
    out_->insert(out_->end(), p, p + n);
  }

 private:
  std::vector<uint8_t>* out_;
};

/// Bounds-checked little-endian decoder over a received payload. Every
/// getter fails (sticky `status()`) instead of reading past the end, so a
/// truncated or hostile payload can never walk the decoder out of its
/// buffer — the protocol-robustness contract server_protocol_test fuzzes.
class WireReader {
 public:
  WireReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit WireReader(const std::vector<uint8_t>& buf)
      : WireReader(buf.data(), buf.size()) {}

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }
  size_t remaining() const { return size_ - pos_; }

  uint8_t GetU8() {
    uint8_t v = 0;
    GetRaw(&v, sizeof(v));
    return v;
  }
  uint16_t GetU16() {
    uint16_t v = 0;
    GetRaw(&v, sizeof(v));
    return v;
  }
  uint32_t GetU32() {
    uint32_t v = 0;
    GetRaw(&v, sizeof(v));
    return v;
  }
  uint64_t GetU64() {
    uint64_t v = 0;
    GetRaw(&v, sizeof(v));
    return v;
  }
  int64_t GetI64() {
    int64_t v = 0;
    GetRaw(&v, sizeof(v));
    return v;
  }
  double GetF64() {
    double v = 0;
    GetRaw(&v, sizeof(v));
    return v;
  }

  std::string GetString() {
    const uint32_t n = GetU32();
    if (!ok() || n > remaining()) {
      Fail("string length exceeds payload");
      return std::string();
    }
    std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return s;
  }

  template <typename T>
  std::vector<T> GetPodVector() {
    static_assert(std::is_trivially_copyable_v<T>);
    const uint64_t n = GetU64();
    // Count-vs-payload validation (the Tlv lesson): the claimed element
    // count must fit in the bytes that are actually present.
    if (!ok() || n > remaining() / sizeof(T)) {
      Fail("vector count exceeds payload");
      return {};
    }
    std::vector<T> v(static_cast<size_t>(n));
    GetRaw(v.data(), v.size() * sizeof(T));
    return v;
  }

  void GetRaw(void* out, size_t n) {
    if (!status_.ok()) return;
    if (n > remaining()) {
      Fail("read past end of payload");
      std::memset(out, 0, n);
      return;
    }
    // An empty vector's data() may be null, and memcpy's pointers must
    // not be even for zero bytes.
    if (n != 0) std::memcpy(out, data_ + pos_, n);
    pos_ += n;
  }

  /// Rejects trailing bytes: a well-formed message consumes its payload
  /// exactly.
  Status ExpectEnd() {
    if (!status_.ok()) return status_;
    if (remaining() != 0) {
      Fail("trailing bytes after message");
    }
    return status_;
  }

 private:
  void Fail(const char* why) {
    if (status_.ok()) {
      status_ = Status::InvalidArgument(std::string("wire decode: ") + why);
    }
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  Status status_;
};

}  // namespace mds

#endif  // MDS_SERVER_WIRE_H_
