#include "storage/vector_codec.h"

#include <cstring>

namespace mds {

namespace {

// Type-name preamble mimicking a self-describing serializer header.
constexpr char kTlvTypeName[] = "System.Single[]";
constexpr size_t kTlvTypeNameLen = sizeof(kTlvTypeName) - 1;
constexpr uint8_t kTlvFloatTag = 0x0b;

}  // namespace

void RawVectorCodec::Encode(const float* v, size_t n,
                            std::vector<uint8_t>* out) {
  out->resize(EncodedSize(n));
  uint32_t count = static_cast<uint32_t>(n);
  std::memcpy(out->data(), &count, 4);
  if (n != 0) std::memcpy(out->data() + 4, v, 4 * n);
}

Result<std::vector<float>> RawVectorCodec::Decode(const uint8_t* data,
                                                  size_t len) {
  if (len < 4) return Status::Corruption("RawVectorCodec: truncated header");
  uint32_t count;
  std::memcpy(&count, data, 4);
  if (len < 4 + 4 * static_cast<size_t>(count)) {
    return Status::Corruption("RawVectorCodec: truncated payload");
  }
  std::vector<float> out(count);
  if (count != 0) {
    std::memcpy(out.data(), data + 4, 4 * static_cast<size_t>(count));
  }
  return out;
}

Result<size_t> RawVectorCodec::DecodeInto(const uint8_t* data, size_t len,
                                          float* out, size_t cap) {
  if (len < 4) return Status::Corruption("RawVectorCodec: truncated header");
  uint32_t count;
  std::memcpy(&count, data, 4);
  if (count > cap) {
    return Status::InvalidArgument("RawVectorCodec: output buffer too small");
  }
  if (len < 4 + 4 * static_cast<size_t>(count)) {
    return Status::Corruption("RawVectorCodec: truncated payload");
  }
  std::memcpy(out, data + 4, 4 * static_cast<size_t>(count));
  return static_cast<size_t>(count);
}

size_t TlvVectorCodec::EncodedSize(size_t n) {
  // [u16 name_len][name][u32 count] + n * ([u8 tag][u8 len][f32]).
  return 2 + kTlvTypeNameLen + 4 + n * 6;
}

void TlvVectorCodec::Encode(const float* v, size_t n,
                            std::vector<uint8_t>* out) {
  out->resize(EncodedSize(n));
  uint8_t* p = out->data();
  uint16_t name_len = static_cast<uint16_t>(kTlvTypeNameLen);
  std::memcpy(p, &name_len, 2);
  p += 2;
  std::memcpy(p, kTlvTypeName, kTlvTypeNameLen);
  p += kTlvTypeNameLen;
  uint32_t count = static_cast<uint32_t>(n);
  std::memcpy(p, &count, 4);
  p += 4;
  for (size_t i = 0; i < n; ++i) {
    *p++ = kTlvFloatTag;
    *p++ = 4;
    std::memcpy(p, &v[i], 4);
    p += 4;
  }
}

Result<std::vector<float>> TlvVectorCodec::Decode(const uint8_t* data,
                                                  size_t len) {
  const uint8_t* p = data;
  const uint8_t* end = data + len;
  if (end - p < 2) return Status::Corruption("TlvVectorCodec: no name length");
  uint16_t name_len;
  std::memcpy(&name_len, p, 2);
  p += 2;
  if (end - p < name_len) {
    return Status::Corruption("TlvVectorCodec: truncated type name");
  }
  if (name_len != kTlvTypeNameLen ||
      std::memcmp(p, kTlvTypeName, kTlvTypeNameLen) != 0) {
    return Status::Corruption("TlvVectorCodec: unexpected type name");
  }
  p += name_len;
  if (end - p < 4) return Status::Corruption("TlvVectorCodec: no count");
  uint32_t count;
  std::memcpy(&count, p, 4);
  p += 4;
  // Validate the count against the bytes actually present before sizing the
  // output: a corrupted count must fail cleanly, not drive a huge reserve().
  if (static_cast<uint64_t>(end - p) < static_cast<uint64_t>(count) * 6) {
    return Status::Corruption("TlvVectorCodec: count exceeds payload");
  }
  std::vector<float> out;
  out.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    if (end - p < 6) return Status::Corruption("TlvVectorCodec: short record");
    if (p[0] != kTlvFloatTag || p[1] != 4) {
      return Status::Corruption("TlvVectorCodec: bad element tag");
    }
    float v;
    std::memcpy(&v, p + 2, 4);
    out.push_back(v);
    p += 6;
  }
  // A count that shrank (e.g. a flipped bit) leaves well-formed records
  // unconsumed; reject that instead of silently dropping elements.
  if (p != end) {
    return Status::Corruption("TlvVectorCodec: trailing bytes after records");
  }
  return out;
}

}  // namespace mds
