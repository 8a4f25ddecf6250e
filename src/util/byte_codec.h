// The little-endian byte codec shared by write-ahead-log records
// (wal/record.h) and wire-protocol messages (net/protocol.h): fixed-width
// integers, u32-length-prefixed strings, and the `length u32 · crc32c u32 ·
// payload` frame both formats put around a payload.
//
// Readers check the bytes that remain before reading and return false
// instead of running past the end; they never allocate more than the bytes
// present. Each format keeps its own size caps and error texts.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/crc32c.h"

namespace ctdb::util {

/// Frame header size: length u32 + crc u32.
inline constexpr size_t kFrameHeaderBytes = 8;

inline void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

inline void PutU32(std::string* out, uint32_t v) {
  char buf[4];
  buf[0] = static_cast<char>(v & 0xFF);
  buf[1] = static_cast<char>((v >> 8) & 0xFF);
  buf[2] = static_cast<char>((v >> 16) & 0xFF);
  buf[3] = static_cast<char>((v >> 24) & 0xFF);
  out->append(buf, 4);
}

inline void PutU64(std::string* out, uint64_t v) {
  PutU32(out, static_cast<uint32_t>(v & 0xFFFFFFFFu));
  PutU32(out, static_cast<uint32_t>(v >> 32));
}

inline void PutString(std::string* out, std::string_view s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

inline bool GetU8(std::string_view data, size_t* offset, uint8_t* v) {
  if (data.size() - *offset < 1) return false;
  *v = static_cast<uint8_t>(data[*offset]);
  *offset += 1;
  return true;
}

inline bool GetU32(std::string_view data, size_t* offset, uint32_t* v) {
  if (data.size() - *offset < 4) return false;
  const auto* p = reinterpret_cast<const uint8_t*>(data.data() + *offset);
  *v = static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
       (static_cast<uint32_t>(p[2]) << 16) | (static_cast<uint32_t>(p[3]) << 24);
  *offset += 4;
  return true;
}

inline bool GetU64(std::string_view data, size_t* offset, uint64_t* v) {
  uint32_t lo = 0, hi = 0;
  if (!GetU32(data, offset, &lo) || !GetU32(data, offset, &hi)) return false;
  *v = static_cast<uint64_t>(hi) << 32 | lo;
  return true;
}

inline bool GetString(std::string_view data, size_t* offset, std::string* s) {
  uint32_t len = 0;
  if (!GetU32(data, offset, &len)) return false;
  if (data.size() - *offset < len) return false;
  s->assign(data.substr(*offset, len));
  *offset += len;
  return true;
}

/// `payload` behind its frame header: length u32 · crc32c(payload) u32.
inline std::string EncodeFrame(std::string_view payload) {
  std::string out;
  out.reserve(kFrameHeaderBytes + payload.size());
  PutU32(&out, static_cast<uint32_t>(payload.size()));
  PutU32(&out, Crc32c(payload));
  out += payload;
  return out;
}

}  // namespace ctdb::util
