// On-disk byte format shared by the storage subsystem: a CRC-32 (IEEE)
// implementation, little-endian primitive encoding, and the framed
// LogRecord every durable file is built from. One frame is
// [len u32][crc u32][payload]; the CRC covers the payload only, so a
// torn tail (short payload) and a corrupted record (bad CRC) are
// distinguishable from a clean end-of-file — replay skips and counts
// them instead of crashing (the `storage.log.corrupt_records` metric).
//
// Shard payloads themselves are *modeled* (the SDK simulates movement,
// not contents); what hits the disk for real is this metadata — small
// fixed-size records that make the catalog crash-recoverable.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "data/object.hpp"

namespace everest::storage {

/// CRC-32 (IEEE 802.3 polynomial, reflected), eight bytes per step
/// (slicing-by-8). `seed` chains calls: crc32(b, crc32(a)) == crc32(a+b).
[[nodiscard]] std::uint32_t crc32(const void* data, std::size_t size,
                                  std::uint32_t seed = 0);
[[nodiscard]] inline std::uint32_t crc32(std::string_view s,
                                         std::uint32_t seed = 0) {
  return crc32(s.data(), s.size(), seed);
}

// ---- little-endian primitive encoding -------------------------------------

void put_u32(std::string& out, std::uint32_t v);
void put_u64(std::string& out, std::uint64_t v);
/// Doubles travel as their IEEE-754 bit pattern (bit-exact roundtrip).
void put_f64(std::string& out, double v);

/// Bounds-checked sequential reader. A read past the end clears ok() and
/// returns zero; callers check ok() once after a batch of reads.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  double f64();
  /// Raw view of the next `n` bytes (empty + !ok() when short).
  std::string_view bytes(std::size_t n);

  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] std::size_t pos() const { return pos_; }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }

 private:
  std::string_view data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// ---- log records ----------------------------------------------------------

/// Catalog mutation kinds. Every durable state change of the data plane
/// is one of these; kPromote and kSeal are advisory (they bump the
/// sequence and feed counters but change no catalog state).
enum class LogRecordType : std::uint8_t {
  kPut = 1,      ///< object (re)registered: version, bytes, shard count
  kPlace,        ///< shard replica placed on a node (RAM)
  kRelease,      ///< shard replica removed from a node (crash, drop)
  kInvalidate,   ///< object lost: version bumped, all copies stale
  kDemote,       ///< shard evicted from cache onto a node's disk tier
  kDiskErase,    ///< shard's disk copy dropped (invalidation, compaction)
  kPromote,      ///< advisory: disk copy re-read into the cache
  kSeal,         ///< advisory: a segment file was sealed on a node
};

/// One fixed-size catalog mutation. Field meaning varies slightly by
/// type: for kPut, `shard` carries the object's shard count and `node`
/// the birth node; for everything else (object, shard, version) names
/// one shard and `node` the affected holder.
struct LogRecord {
  LogRecordType type = LogRecordType::kPut;
  std::uint64_t seq = 0;  ///< total order over the log; 0 = unstamped
  std::uint64_t object = 0;
  std::uint32_t shard = 0;
  std::uint64_t version = 0;
  std::uint64_t node = 0;
  double bytes = 0.0;

  [[nodiscard]] data::ShardKey key() const {
    return data::ShardKey{object, shard, version};
  }

  friend bool operator==(const LogRecord& a, const LogRecord& b) {
    return a.type == b.type && a.seq == b.seq && a.object == b.object &&
           a.shard == b.shard && a.version == b.version && a.node == b.node &&
           a.bytes == b.bytes;
  }
};

/// Payload bytes of one encoded record (frame adds 8: len + crc).
inline constexpr std::size_t kRecordPayloadBytes = 1 + 8 + 8 + 4 + 8 + 8 + 8;
inline constexpr std::size_t kRecordFrameBytes = kRecordPayloadBytes + 8;

/// Appends the framed record to `out`.
void encode_record(const LogRecord& record, std::string& out);

/// Outcome of decoding one frame at the reader's position.
enum class DecodeStatus {
  kOk,         ///< record decoded; reader advanced past it
  kEndOfInput, ///< clean end: zero bytes remained
  kTorn,       ///< a partial frame (crash mid-write); reader consumed rest
  kCorrupt,    ///< CRC/length mismatch; reader consumed rest
};

/// Decodes one framed record. On kTorn/kCorrupt the reader is drained —
/// nothing after a damaged frame can be trusted (lengths are gone), which
/// is exactly the append-only-log tail-truncation rule.
DecodeStatus decode_record(ByteReader& reader, LogRecord* out);

}  // namespace everest::storage
