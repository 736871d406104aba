// Little-endian byte codec shared by every on-disk payload: the flat Graph
// encoding (graph/serialize.h), the record-log frames (store/record_log.h)
// and the artifact-store and job-journal record schemas.
//
// Writers append fixed-width integers, exact IEEE-754 double bit patterns
// and u32-length-prefixed strings to a std::string. Readers consume the
// same from a byte span at `*cursor`, advancing it, and return false when
// fewer bytes remain than the value needs (the cursor is then unspecified),
// so a truncated or hostile buffer is rejected, never over-read.
// Integers are copied in host order; the record-log superblock's
// endianness tag rejects files from a foreign-endian machine up front.

#ifndef DCS_UTIL_BYTE_CODEC_H_
#define DCS_UTIL_BYTE_CODEC_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>

namespace dcs {

inline void AppendU32(uint32_t v, std::string* out) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out->append(buf, 4);
}

inline void AppendU64(uint64_t v, std::string* out) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}

inline void AppendDoubleBits(double v, std::string* out) {
  AppendU64(std::bit_cast<uint64_t>(v), out);
}

inline void AppendString(const std::string& s, std::string* out) {
  AppendU32(static_cast<uint32_t>(s.size()), out);
  out->append(s);
}

inline bool ReadU32(std::span<const uint8_t> bytes, size_t* cursor,
                    uint32_t* v) {
  if (bytes.size() - *cursor < 4) return false;
  std::memcpy(v, bytes.data() + *cursor, 4);
  *cursor += 4;
  return true;
}

inline bool ReadU64(std::span<const uint8_t> bytes, size_t* cursor,
                    uint64_t* v) {
  if (bytes.size() - *cursor < 8) return false;
  std::memcpy(v, bytes.data() + *cursor, 8);
  *cursor += 8;
  return true;
}

inline bool ReadDoubleBits(std::span<const uint8_t> bytes, size_t* cursor,
                           double* v) {
  uint64_t b = 0;
  if (!ReadU64(bytes, cursor, &b)) return false;
  *v = std::bit_cast<double>(b);
  return true;
}

inline bool ReadString(std::span<const uint8_t> bytes, size_t* cursor,
                       std::string* s) {
  uint32_t len = 0;
  if (!ReadU32(bytes, cursor, &len)) return false;
  if (bytes.size() - *cursor < len) return false;
  s->assign(reinterpret_cast<const char*>(bytes.data() + *cursor), len);
  *cursor += len;
  return true;
}

}  // namespace dcs

#endif  // DCS_UTIL_BYTE_CODEC_H_
