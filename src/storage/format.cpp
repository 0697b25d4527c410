#include "storage/format.hpp"

#include <array>
#include <cstring>

namespace everest::storage {

namespace {

/// Slicing-by-8 tables: kCrcTables[0] is the classic bytewise table;
/// kCrcTables[k][b] is the CRC of byte b followed by k zero bytes, so
/// eight table lookups fold eight input bytes at once.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables make_crc_tables() {
  CrcTables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < tables.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

constexpr CrcTables kCrcTables = make_crc_tables();

std::uint32_t load_le32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

/// Stores `v` little-endian at `p`; returns the byte past it.
template <typename U>
char* store_le(char* p, U v) {
  for (std::size_t i = 0; i < sizeof(U); ++i) {
    p[i] = static_cast<char>((v >> (8 * i)) & 0xFFu);
  }
  return p + sizeof(U);
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed) {
  const auto& t = kCrcTables;
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (; size >= 8; size -= 8, p += 8) {
    const std::uint32_t lo = c ^ load_le32(p);
    const std::uint32_t hi = load_le32(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; size > 0; --size, ++p) {
    c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

void put_f64(std::string& out, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(out, bits);
}

std::uint8_t ByteReader::u8() {
  if (pos_ + 1 > data_.size()) {
    ok_ = false;
    return 0;
  }
  return static_cast<std::uint8_t>(data_[pos_++]);
}

std::uint32_t ByteReader::u32() {
  if (pos_ + 4 > data_.size()) {
    ok_ = false;
    pos_ = data_.size();
    return 0;
  }
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(
             static_cast<unsigned char>(data_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 4;
  return v;
}

std::uint64_t ByteReader::u64() {
  if (pos_ + 8 > data_.size()) {
    ok_ = false;
    pos_ = data_.size();
    return 0;
  }
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(
             static_cast<unsigned char>(data_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 8;
  return v;
}

double ByteReader::f64() {
  const std::uint64_t bits = u64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string_view ByteReader::bytes(std::size_t n) {
  if (pos_ + n > data_.size()) {
    ok_ = false;
    pos_ = data_.size();
    return {};
  }
  std::string_view out = data_.substr(pos_, n);
  pos_ += n;
  return out;
}

void encode_record(const LogRecord& record, std::string& out) {
  // The frame is written in place: grow `out` once, store the payload
  // fields straight into it, then the header, whose CRC covers the
  // payload bytes already in `out`.
  const std::size_t at = out.size();
  out.resize(at + kRecordFrameBytes);
  char* const frame = out.data() + at;
  char* p = frame + 8;
  *p++ = static_cast<char>(record.type);
  p = store_le(p, record.seq);
  p = store_le(p, record.object);
  p = store_le(p, record.shard);
  p = store_le(p, record.version);
  p = store_le(p, record.node);
  std::uint64_t bits;
  std::memcpy(&bits, &record.bytes, sizeof(bits));
  store_le(p, bits);
  store_le(frame, static_cast<std::uint32_t>(kRecordPayloadBytes));
  store_le(frame + 4, crc32(frame + 8, kRecordPayloadBytes));
}

DecodeStatus decode_record(ByteReader& reader, LogRecord* out) {
  if (reader.remaining() == 0) return DecodeStatus::kEndOfInput;
  if (reader.remaining() < 8) {
    (void)reader.bytes(reader.remaining());
    return DecodeStatus::kTorn;
  }
  const std::uint32_t len = reader.u32();
  const std::uint32_t crc = reader.u32();
  if (len != kRecordPayloadBytes) {
    // A garbage length cannot be skipped over safely: stop here.
    (void)reader.bytes(reader.remaining());
    return DecodeStatus::kCorrupt;
  }
  if (reader.remaining() < len) {
    (void)reader.bytes(reader.remaining());
    return DecodeStatus::kTorn;
  }
  const std::string_view payload = reader.bytes(len);
  if (crc32(payload) != crc) {
    (void)reader.bytes(reader.remaining());
    return DecodeStatus::kCorrupt;
  }
  ByteReader pr(payload);
  out->type = static_cast<LogRecordType>(pr.u8());
  out->seq = pr.u64();
  out->object = pr.u64();
  out->shard = pr.u32();
  out->version = pr.u64();
  out->node = pr.u64();
  out->bytes = pr.f64();
  return DecodeStatus::kOk;
}

}  // namespace everest::storage
