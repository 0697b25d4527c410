// Unit tests for the persistent storage subsystem: the on-disk record
// format (CRC framing, torn vs corrupt tails), the materialized Catalog
// and its replay-idempotence guard, append-only SegmentStores (sealing,
// compaction, reopen), the write-ahead CatalogLog (group commit,
// two-phase checkpoints, crash-mid-checkpoint convergence), the modeled
// DiskTier, and recovery instrumentation. Durable tests run against a
// throwaway directory under the system temp root.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "data/object.hpp"
#include "data/plane.hpp"
#include "obs/registry.hpp"
#include "platform/desim.hpp"
#include "storage/storage.hpp"

namespace everest::storage {
namespace {

namespace fs = std::filesystem;

/// Self-cleaning scratch directory for durable-path tests.
class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = (fs::temp_directory_path() /
             ("everest_storage_test_" + tag + "_" + std::to_string(getpid())))
                .string();
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void dump(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

LogRecord rec(LogRecordType type, std::uint64_t seq, std::uint64_t object = 1,
              std::uint32_t shard = 0, std::uint64_t version = 0,
              std::uint64_t node = 0, double bytes = 0.0) {
  return LogRecord{type, seq, object, shard, version, node, bytes};
}

std::string to_hex(const std::string& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xF]);
  }
  return out;
}

// ---------------------------------------------------------------- format --

TEST(Format, Crc32MatchesKnownVectorAndChains) {
  // The canonical CRC-32 (IEEE) check value.
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(crc32(""), 0u);
  // Chaining: crc(b, seed=crc(a)) == crc(a+b).
  EXPECT_EQ(crc32(std::string_view("6789"), crc32("12345")),
            crc32("123456789"));
  EXPECT_NE(crc32("123456789"), crc32("123456788"));
}

TEST(Format, Crc32SlicedPathMatchesBytewiseReference) {
  // The textbook one-byte-at-a-time CRC-32 the eight-byte table path
  // must reproduce for every length and alignment (the sliced loop and
  // its bytewise tail split differently at each).
  const auto reference = [](const unsigned char* p, std::size_t n,
                            std::uint32_t seed) {
    std::uint32_t c = seed ^ 0xFFFFFFFFu;
    for (std::size_t i = 0; i < n; ++i) {
      c ^= p[i];
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
    }
    return c ^ 0xFFFFFFFFu;
  };
  std::vector<unsigned char> buf(64 + 8);
  std::uint32_t x = 0x9E3779B9u;
  for (unsigned char& b : buf) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<unsigned char>(x >> 24);
  }
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 64; ++len) {
      const unsigned char* p = buf.data() + offset;
      ASSERT_EQ(crc32(p, len), reference(p, len, 0))
          << "offset " << offset << " len " << len;
      ASSERT_EQ(crc32(p, len, 0xDEADBEEFu), reference(p, len, 0xDEADBEEFu))
          << "seeded, offset " << offset << " len " << len;
    }
  }
}

TEST(Format, ByteReaderIsBoundsChecked) {
  std::string buf;
  put_u32(buf, 7);
  ByteReader r(buf);
  EXPECT_EQ(r.u32(), 7u);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.u64(), 0u);  // past the end: zero, not UB
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Format, RecordRoundtripsThroughFrame) {
  const LogRecord in = rec(LogRecordType::kDemote, 42, 7, 3, 2, 5, 1.5e6);
  std::string frame;
  encode_record(in, frame);
  EXPECT_EQ(frame.size(), kRecordFrameBytes);

  ByteReader reader(frame);
  LogRecord out;
  EXPECT_EQ(decode_record(reader, &out), DecodeStatus::kOk);
  EXPECT_EQ(out, in);
  EXPECT_EQ(out.key(), (data::ShardKey{7, 3, 2}));
  EXPECT_EQ(decode_record(reader, &out), DecodeStatus::kEndOfInput);
}

TEST(Format, CorruptPayloadDrainsReader) {
  std::string frames;
  encode_record(rec(LogRecordType::kPut, 1), frames);
  encode_record(rec(LogRecordType::kPut, 2), frames);
  frames[10] ^= 0x40;  // flip one bit inside the first payload

  ByteReader reader(frames);
  LogRecord out;
  // The CRC catches the flip; nothing after a damaged frame is trusted,
  // so the intact second record is sacrificed (tail-truncation rule).
  EXPECT_EQ(decode_record(reader, &out), DecodeStatus::kCorrupt);
  EXPECT_EQ(reader.remaining(), 0u);
}

TEST(Format, TornFrameDrainsReader) {
  std::string frame;
  encode_record(rec(LogRecordType::kPlace, 3), frame);
  const std::string torn = frame.substr(0, frame.size() - 5);

  ByteReader reader(torn);
  LogRecord out;
  EXPECT_EQ(decode_record(reader, &out), DecodeStatus::kTorn);
  EXPECT_EQ(reader.remaining(), 0u);
}

TEST(Format, GarbageLengthIsCorruptNotCrash) {
  std::string junk;
  put_u32(junk, 0xFFFFFFu);  // impossible length
  put_u32(junk, 0);
  junk += std::string(64, 'x');
  ByteReader reader(junk);
  LogRecord out;
  EXPECT_EQ(decode_record(reader, &out), DecodeStatus::kCorrupt);
  EXPECT_EQ(reader.remaining(), 0u);
}

// Golden frames: the on-disk WAL format is pinned byte for byte, so any
// change to the encoder (buffer handling, field order, CRC coverage)
// that alters a frame fails here, not in a replay much later. Each
// expected string is laid out as: len, crc / type, seq, object, shard /
// version, node, bytes — all little-endian.
TEST(Format, GoldenFramesArePinned) {
  std::string place;
  encode_record(rec(LogRecordType::kPlace, 5, 0x0102030405060708ULL, 3, 1000,
                    2, 1.5),
                place);
  EXPECT_EQ(to_hex(place),
            "2d000000" "0e5dcb3a"
            "02" "0500000000000000" "0807060504030201" "03000000"
            "e803000000000000" "0200000000000000" "000000000000f83f");
  std::string seal = "prefix";  // encode appends; existing bytes stay
  encode_record(rec(LogRecordType::kSeal, 6, 9, 1, 2000, 0xDEADBEEFULL, 0.0),
                seal);
  EXPECT_EQ(seal.substr(0, 6), "prefix");
  EXPECT_EQ(to_hex(seal.substr(6)),
            "2d000000" "4490aa8e"
            "08" "0600000000000000" "0900000000000000" "01000000"
            "d007000000000000" "efbeadde00000000" "0000000000000000");
}

// --------------------------------------------------------------- catalog --

TEST(Catalog, ApplyBuildsObjectReplicaAndDiskState) {
  Catalog c;
  EXPECT_TRUE(c.empty());
  EXPECT_TRUE(c.apply(rec(LogRecordType::kPut, 1, 7, /*shards=*/2, 0, 0, 8.0)));
  EXPECT_TRUE(c.apply(rec(LogRecordType::kPlace, 2, 7, 0, 0, 1, 4.0)));
  EXPECT_TRUE(c.apply(rec(LogRecordType::kPlace, 3, 7, 1, 0, 2, 4.0)));
  EXPECT_TRUE(c.apply(rec(LogRecordType::kDemote, 4, 7, 0, 0, 3, 4.0)));

  ASSERT_EQ(c.objects().count(7), 1u);
  EXPECT_EQ(c.objects().at(7).num_shards, 2u);
  EXPECT_DOUBLE_EQ(c.objects().at(7).bytes, 8.0);
  ASSERT_EQ(c.ram_replicas().count(data::ShardKey{7, 0, 0}), 1u);
  EXPECT_EQ(c.ram_replicas().at(data::ShardKey{7, 0, 0}),
            (std::vector<std::uint64_t>{1}));
  ASSERT_EQ(c.disk().count(data::ShardKey{7, 0, 0}), 1u);
  EXPECT_EQ(c.disk().at(data::ShardKey{7, 0, 0}).nodes.count(3), 1u);
  EXPECT_EQ(c.last_seq(), 4u);
}

TEST(Catalog, SeqGuardMakesReplayIdempotent) {
  Catalog c;
  const LogRecord r1 = rec(LogRecordType::kPlace, 5, 1, 0, 0, 2, 4.0);
  EXPECT_TRUE(c.apply(r1));
  // Replaying the same record (or anything at or before last_seq) is a
  // no-op — the property that makes crash-mid-checkpoint safe.
  EXPECT_FALSE(c.apply(r1));
  EXPECT_FALSE(c.apply(rec(LogRecordType::kRelease, 4, 1, 0, 0, 2)));
  EXPECT_FALSE(c.apply(rec(LogRecordType::kRelease, 0, 1, 0, 0, 2)));
  EXPECT_EQ(c.ram_replicas().at(data::ShardKey{1, 0, 0}).size(), 1u);
  EXPECT_EQ(c.last_seq(), 5u);
}

TEST(Catalog, InvalidateDropsEveryStaleCopy) {
  Catalog c;
  ASSERT_TRUE(c.apply(rec(LogRecordType::kPut, 1, 9, 1, 0, 0, 4.0)));
  ASSERT_TRUE(c.apply(rec(LogRecordType::kPlace, 2, 9, 0, 0, 1, 4.0)));
  ASSERT_TRUE(c.apply(rec(LogRecordType::kDemote, 3, 9, 0, 0, 2, 4.0)));
  ASSERT_TRUE(c.apply(rec(LogRecordType::kInvalidate, 4, 9, 0, /*ver=*/1)));
  EXPECT_TRUE(c.ram_replicas().empty());
  EXPECT_TRUE(c.disk().empty());
  EXPECT_EQ(c.objects().at(9).version, 1u);
}

TEST(Catalog, AdvisoryRecordsAdvanceSeqOnly) {
  Catalog c;
  ASSERT_TRUE(c.apply(rec(LogRecordType::kPromote, 1, 3, 0, 0, 1, 4.0)));
  ASSERT_TRUE(c.apply(rec(LogRecordType::kSeal, 2, 0, 0, 0, 1)));
  EXPECT_EQ(c.last_seq(), 2u);
  EXPECT_TRUE(c.empty());  // no durable state changed
}

TEST(Catalog, SnapshotRoundtripsByteIdentically) {
  Catalog c;
  ASSERT_TRUE(c.apply(rec(LogRecordType::kPut, 1, 7, 2, 0, 0, 8.0)));
  ASSERT_TRUE(c.apply(rec(LogRecordType::kPlace, 2, 7, 0, 0, 1, 4.0)));
  ASSERT_TRUE(c.apply(rec(LogRecordType::kDemote, 3, 7, 1, 0, 2, 4.0)));

  const auto decoded = Catalog::decode(c.encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded.value() == c);
  EXPECT_EQ(decoded.value().fingerprint(), c.fingerprint());
  EXPECT_EQ(decoded.value().encode(), c.encode());
}

TEST(Catalog, CorruptSnapshotIsRejected) {
  Catalog c;
  ASSERT_TRUE(c.apply(rec(LogRecordType::kPut, 1, 7, 1, 0, 0, 8.0)));
  std::string bytes = c.encode();
  bytes[bytes.size() / 2] ^= 0x01;
  EXPECT_EQ(Catalog::decode(bytes).status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(Catalog::decode(bytes.substr(0, 3)).status().code(),
            StatusCode::kDataLoss);
}

// --------------------------------------------------------------- segment --

TEST(Segment, InMemoryAppendLocateErase) {
  SegmentStore store("");  // no dir: pure simulation mode
  const data::ShardKey key{1, 0, 0};
  ASSERT_TRUE(store.append(key, 100.0).ok());
  EXPECT_TRUE(store.contains(key));
  ASSERT_TRUE(store.locate(key).ok());
  EXPECT_DOUBLE_EQ(store.locate(key).value(), 100.0);
  EXPECT_DOUBLE_EQ(store.live_bytes(), 100.0);

  EXPECT_TRUE(store.erase(key));
  EXPECT_FALSE(store.contains(key));
  EXPECT_FALSE(store.erase(key));
  EXPECT_DOUBLE_EQ(store.live_bytes(), 0.0);
  EXPECT_DOUBLE_EQ(store.stats().dead_bytes, 100.0);
  EXPECT_EQ(store.locate(key).status().code(), StatusCode::kNotFound);
}

TEST(Segment, DuplicateAppendIsAlreadyExists) {
  SegmentStore store("");
  ASSERT_TRUE(store.append(data::ShardKey{1, 0, 0}, 10.0).ok());
  EXPECT_EQ(store.append(data::ShardKey{1, 0, 0}, 10.0).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(store.stats().appends, 1u);
}

TEST(Segment, SealsAndRollsWhenFull) {
  SegmentConfig config;
  config.segment_bytes = 100.0;
  SegmentStore store("", config);
  for (std::uint32_t s = 0; s < 6; ++s) {
    ASSERT_TRUE(store.append(data::ShardKey{1, s, 0}, 40.0).ok());
  }
  // 240 logical bytes over 100-byte segments: at least two seals, and
  // every shard stays indexed across the rolls.
  EXPECT_GE(store.stats().seals, 2u);
  EXPECT_GE(store.num_segments(), 2u);
  EXPECT_EQ(store.size(), 6u);
  EXPECT_DOUBLE_EQ(store.live_bytes(), 240.0);
}

TEST(Segment, CompactReclaimsMostlyDeadSegments) {
  SegmentConfig config;
  config.segment_bytes = 100.0;
  config.compact_dead_fraction = 0.5;
  SegmentStore store("", config);
  for (std::uint32_t s = 0; s < 6; ++s) {
    ASSERT_TRUE(store.append(data::ShardKey{1, s, 0}, 40.0).ok());
  }
  // Kill most of the early shards, then compact: dead-heavy sealed
  // segments are rewritten, their live remainder survives.
  for (std::uint32_t s = 0; s < 4; ++s) {
    ASSERT_TRUE(store.erase(data::ShardKey{1, s, 0}));
  }
  const std::size_t reclaimed = store.compact();
  EXPECT_GE(reclaimed, 1u);
  EXPECT_EQ(store.stats().segments_removed, reclaimed);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_DOUBLE_EQ(store.live_bytes(), 80.0);
  for (std::uint32_t s = 4; s < 6; ++s) {
    EXPECT_TRUE(store.contains(data::ShardKey{1, s, 0}));
  }
}

TEST(Segment, ReopenRebuildsIndexFromFiles) {
  TempDir dir("seg_reopen");
  {
    SegmentConfig config;
    config.segment_bytes = 100.0;
    SegmentStore store(dir.path(), config);
    for (std::uint32_t s = 0; s < 5; ++s) {
      ASSERT_TRUE(store.append(data::ShardKey{2, s, 1}, 40.0).ok());
    }
    ASSERT_TRUE(store.erase(data::ShardKey{2, 0, 1}));
  }  // destructor closes the files

  SegmentStore reopened(dir.path());
  EXPECT_EQ(reopened.size(), 4u);
  EXPECT_DOUBLE_EQ(reopened.live_bytes(), 160.0);
  EXPECT_FALSE(reopened.contains(data::ShardKey{2, 0, 1}));
  for (std::uint32_t s = 1; s < 5; ++s) {
    EXPECT_TRUE(reopened.contains(data::ShardKey{2, s, 1}));
  }
  EXPECT_EQ(reopened.stats().corrupt_records, 0u);
}

TEST(Segment, ReopenTruncatesCorruptTail) {
  TempDir dir("seg_corrupt");
  std::string victim;
  {
    SegmentStore store(dir.path());
    for (std::uint32_t s = 0; s < 3; ++s) {
      ASSERT_TRUE(store.append(data::ShardKey{3, s, 0}, 10.0).ok());
    }
    for (const auto& entry : fs::directory_iterator(dir.path())) {
      victim = entry.path().string();
    }
  }
  ASSERT_FALSE(victim.empty());
  // Flip a bit in the last record's payload: a crash-corrupted tail.
  std::string bytes = slurp(victim);
  bytes[bytes.size() - 10] ^= 0x08;
  dump(victim, bytes);

  SegmentStore reopened(dir.path());
  // The two records before the damage survive; the damaged tail is
  // dropped and counted, never fatal.
  EXPECT_EQ(reopened.size(), 2u);
  EXPECT_GE(reopened.stats().corrupt_records, 1u);
  EXPECT_TRUE(reopened.contains(data::ShardKey{3, 0, 0}));
  EXPECT_TRUE(reopened.contains(data::ShardKey{3, 1, 0}));
  EXPECT_FALSE(reopened.contains(data::ShardKey{3, 2, 0}));
  // And the store still accepts appends (into a fresh segment, never
  // after the damaged region).
  EXPECT_TRUE(reopened.append(data::ShardKey{3, 9, 0}, 10.0).ok());
}

TEST(Segment, InvalidateObjectDropsOnlyStaleVersions) {
  SegmentStore store("");
  ASSERT_TRUE(store.append(data::ShardKey{4, 0, 0}, 10.0).ok());
  ASSERT_TRUE(store.append(data::ShardKey{4, 1, 0}, 10.0).ok());
  ASSERT_TRUE(store.append(data::ShardKey{4, 0, 2}, 10.0).ok());
  ASSERT_TRUE(store.append(data::ShardKey{5, 0, 0}, 10.0).ok());
  EXPECT_EQ(store.invalidate_object(4, /*version=*/2), 2u);
  EXPECT_FALSE(store.contains(data::ShardKey{4, 0, 0}));
  EXPECT_TRUE(store.contains(data::ShardKey{4, 0, 2}));  // current version
  EXPECT_TRUE(store.contains(data::ShardKey{5, 0, 0}));  // other object
}

// ------------------------------------------------------------------- log --

TEST(CatalogLogTest, AppendStampsMonotonicSeqsAndReplays) {
  TempDir dir("log_roundtrip");
  Catalog mirror;
  {
    CatalogLog log(dir.path());
    for (std::uint64_t i = 0; i < 10; ++i) {
      LogRecord r = rec(LogRecordType::kPlace, 0, /*object=*/i, 0, 0, 1, 4.0);
      const std::uint64_t seq = log.append(r).seq;
      EXPECT_EQ(seq, i + 1);
      r.seq = seq;
      ASSERT_TRUE(mirror.apply(r));
    }
    EXPECT_EQ(log.stats().appends, 10u);
  }
  const ReplayResult replayed = CatalogLog::replay(dir.path());
  EXPECT_FALSE(replayed.snapshot_loaded);
  EXPECT_EQ(replayed.records_applied, 10u);
  EXPECT_EQ(replayed.corrupt_records, 0u);
  // Byte-identical catalog: the mirror maintained online equals the one
  // rebuilt from disk.
  EXPECT_EQ(replayed.catalog.fingerprint(), mirror.fingerprint());
}

TEST(CatalogLogTest, GroupCommitHonorsSyncEvery) {
  TempDir dir("log_sync");
  LogConfig config;
  config.sync_every = 4;
  CatalogLog log(dir.path(), config);
  for (int i = 0; i < 10; ++i) {
    log.append(rec(LogRecordType::kPlace, 0, 1, 0, 0, 1, 4.0));
  }
  EXPECT_EQ(log.stats().syncs, 2u);  // after the 4th and 8th append
  log.sync();
  EXPECT_EQ(log.stats().syncs, 3u);  // flushes the 2 stragglers
  log.sync();
  EXPECT_EQ(log.stats().syncs, 3u);  // nothing buffered: no-op
}

TEST(CatalogLogTest, CheckpointTruncatesAndSnapshotCarries) {
  TempDir dir("log_ckpt");
  Catalog mirror;
  CatalogLog log(dir.path());
  for (std::uint64_t i = 0; i < 6; ++i) {
    LogRecord r = rec(LogRecordType::kPlace, 0, i, 0, 0, 2, 4.0);
    r.seq = log.append(r).seq;
    ASSERT_TRUE(mirror.apply(r));
  }
  ASSERT_TRUE(log.checkpoint(mirror).ok());
  EXPECT_DOUBLE_EQ(log.stats().log_bytes, 0.0);
  EXPECT_EQ(log.stats().checkpoints, 1u);

  const ReplayResult replayed = CatalogLog::replay(dir.path());
  EXPECT_TRUE(replayed.snapshot_loaded);
  EXPECT_EQ(replayed.records_applied, 0u);  // everything lives in the snap
  EXPECT_EQ(replayed.catalog.fingerprint(), mirror.fingerprint());
}

TEST(CatalogLogTest, CrashBetweenSnapshotAndTruncateConverges) {
  TempDir dir("log_torn_ckpt");
  Catalog mirror;
  CatalogLog log(dir.path());
  for (std::uint64_t i = 0; i < 8; ++i) {
    LogRecord r = rec(LogRecordType::kPlace, 0, i, 0, 0, 1, 4.0);
    r.seq = log.append(r).seq;
    ASSERT_TRUE(mirror.apply(r));
  }
  log.sync();
  const std::uint64_t log_only = CatalogLog::replay(dir.path())
                                     .catalog.fingerprint();

  // Phase 1 lands, the process dies before phase 2: the snapshot exists
  // AND the full log still exists — the torn-checkpoint window.
  ASSERT_TRUE(log.write_snapshot(mirror).ok());

  const ReplayResult replayed = CatalogLog::replay(dir.path());
  EXPECT_TRUE(replayed.snapshot_loaded);
  // Every logged record is seen again and skipped by the seq guard…
  EXPECT_EQ(replayed.records_applied, 0u);
  EXPECT_EQ(replayed.records_skipped, 8u);
  // …and the result is byte-identical to both the online mirror and a
  // log-only replay: the window is convergent, not just non-fatal.
  EXPECT_EQ(replayed.catalog.fingerprint(), mirror.fingerprint());
  EXPECT_EQ(replayed.catalog.fingerprint(), log_only);
}

TEST(CatalogLogTest, CorruptTailIsSkippedCountedAndMetered) {
  TempDir dir("log_corrupt");
  {
    CatalogLog log(dir.path());
    for (std::uint64_t i = 0; i < 5; ++i) {
      log.append(rec(LogRecordType::kPlace, 0, i, 0, 0, 1, 4.0));
    }
  }
  // Corrupt the last record in place (bit flip inside its payload).
  const std::string path = CatalogLog::log_path(dir.path());
  std::string bytes = slurp(path);
  ASSERT_EQ(bytes.size(), 5 * kRecordFrameBytes);
  bytes[bytes.size() - 4] ^= 0x20;
  dump(path, bytes);

  obs::Registry registry;
  const ReplayResult replayed = CatalogLog::replay(dir.path(), &registry);
  EXPECT_EQ(replayed.records_applied, 4u);
  EXPECT_EQ(replayed.corrupt_records, 1u);
  EXPECT_EQ(registry.counter("storage.log.corrupt_records")->value(), 1u);
  EXPECT_EQ(registry.counter("storage.log.replayed_records")->value(), 4u);
}

TEST(CatalogLogTest, TornTailRecordIsTruncated) {
  TempDir dir("log_torn");
  {
    CatalogLog log(dir.path());
    for (std::uint64_t i = 0; i < 3; ++i) {
      log.append(rec(LogRecordType::kDemote, 0, i, 0, 0, 1, 4.0));
    }
  }
  const std::string path = CatalogLog::log_path(dir.path());
  std::string bytes = slurp(path);
  dump(path, bytes.substr(0, bytes.size() - 20));  // crash mid-write

  const ReplayResult replayed = CatalogLog::replay(dir.path());
  EXPECT_EQ(replayed.records_applied, 2u);
  EXPECT_EQ(replayed.corrupt_records, 1u);
}

TEST(CatalogLogTest, CorruptSnapshotFallsBackToLog) {
  TempDir dir("log_bad_snap");
  Catalog mirror;
  CatalogLog log(dir.path());
  for (std::uint64_t i = 0; i < 4; ++i) {
    LogRecord r = rec(LogRecordType::kPlace, 0, i, 0, 0, 1, 4.0);
    r.seq = log.append(r).seq;
    ASSERT_TRUE(mirror.apply(r));
  }
  log.sync();
  ASSERT_TRUE(log.write_snapshot(mirror).ok());
  // Damage the snapshot; the untruncated log still holds everything.
  const std::string snap = CatalogLog::snapshot_path(dir.path());
  std::string bytes = slurp(snap);
  bytes[bytes.size() / 2] ^= 0x01;
  dump(snap, bytes);

  const ReplayResult replayed = CatalogLog::replay(dir.path());
  EXPECT_FALSE(replayed.snapshot_loaded);
  EXPECT_GE(replayed.corrupt_records, 1u);
  EXPECT_EQ(replayed.records_applied, 4u);
  EXPECT_EQ(replayed.catalog.fingerprint(), mirror.fingerprint());
}

TEST(CatalogLogTest, SequenceNumbersResumeAcrossReopen) {
  TempDir dir("log_resume");
  {
    CatalogLog log(dir.path());
    for (int i = 0; i < 5; ++i) {
      log.append(rec(LogRecordType::kPlace, 0, 1, 0, 0, 1, 4.0));
    }
  }
  CatalogLog reopened(dir.path());
  EXPECT_EQ(reopened.next_seq(), 6u);
  EXPECT_EQ(reopened.append(rec(LogRecordType::kPlace, 0, 2, 0, 0, 1, 4.0)).seq,
            6u);
}

TEST(CatalogLogTest, ConcurrentAppendsSerializeWithoutLossOrTears) {
  TempDir dir("log_threads");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 64;
  std::vector<std::vector<std::uint64_t>> seqs(kThreads);
  {
    CatalogLog log(dir.path());
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&log, &seqs, t] {
        for (int i = 0; i < kPerThread; ++i) {
          seqs[t].push_back(
              log.append(rec(LogRecordType::kPlace, 0,
                             static_cast<std::uint64_t>(t), 0, 0,
                             static_cast<std::uint64_t>(i), 4.0))
                  .seq);
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  std::set<std::uint64_t> unique;
  for (const auto& per_thread : seqs) {
    unique.insert(per_thread.begin(), per_thread.end());
  }
  EXPECT_EQ(unique.size(),
            static_cast<std::size_t>(kThreads * kPerThread));
  const ReplayResult replayed = CatalogLog::replay(dir.path());
  EXPECT_EQ(replayed.records_applied,
            static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(replayed.corrupt_records, 0u);
}

// ------------------------------------------------------------------ tier --

TierConfig small_tier(double capacity = 1000.0) {
  TierConfig config;
  config.capacity_bytes = capacity;
  return config;
}

TEST(Tier, DemotePromoteRoundtripChargesModeledTime) {
  platform::Simulator sim;
  DiskTier tier(sim, /*node=*/0, small_tier(1e9));
  const data::ShardKey key{1, 0, 0};
  ASSERT_TRUE(tier.demote(key, 1e6).ok());
  EXPECT_TRUE(tier.resident(key));
  sim.run();  // drain the background write

  bool read = false;
  ASSERT_TRUE(tier.promote(key, [&] { read = true; }).ok());
  sim.run();
  EXPECT_TRUE(read);
  // The promotion paid at least the idle-device estimate (more under
  // contention, never less).
  EXPECT_GE(sim.now(), tier.read_estimate_us(1e6));
  EXPECT_EQ(tier.stats().demotions, 1u);
  EXPECT_EQ(tier.stats().promotions, 1u);
  EXPECT_DOUBLE_EQ(tier.stats().bytes_written, 1e6);
  EXPECT_DOUBLE_EQ(tier.stats().bytes_read, 1e6);
}

TEST(Tier, CapacityRejectsAndDuplicatesAreSafe) {
  platform::Simulator sim;
  DiskTier tier(sim, 0, small_tier(/*capacity=*/100.0));
  ASSERT_TRUE(tier.demote(data::ShardKey{1, 0, 0}, 60.0).ok());
  EXPECT_EQ(tier.demote(data::ShardKey{1, 0, 0}, 60.0).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(tier.demote(data::ShardKey{1, 1, 0}, 60.0).code(),
            StatusCode::kResourceExhausted);
  // Only the capacity refusal counts as a rejection; a duplicate demote
  // means the shard is already safe on disk.
  EXPECT_EQ(tier.stats().rejected, 1u);
  EXPECT_EQ(tier.promote(data::ShardKey{9, 0, 0}, [] {}).code(),
            StatusCode::kNotFound);
}

TEST(Tier, OfflineRefusesButKeepsContents) {
  platform::Simulator sim;
  DiskTier tier(sim, 0, small_tier());
  const data::ShardKey key{1, 0, 0};
  ASSERT_TRUE(tier.demote(key, 10.0).ok());

  tier.set_offline(true);  // fail-stop: the node died
  EXPECT_FALSE(tier.resident(key));
  EXPECT_EQ(tier.demote(data::ShardKey{1, 1, 0}, 10.0).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(tier.promote(key, [] {}).code(),
            StatusCode::kFailedPrecondition);

  tier.set_offline(false);  // disks survive crashes
  EXPECT_TRUE(tier.resident(key));
}

TEST(Tier, AdoptReseedsWithoutChargingIo) {
  platform::Simulator sim;
  DiskTier tier(sim, 0, small_tier());
  tier.adopt(data::ShardKey{1, 0, 0}, 50.0);
  EXPECT_TRUE(tier.resident(data::ShardKey{1, 0, 0}));
  EXPECT_EQ(tier.stats().adopted, 1u);
  EXPECT_DOUBLE_EQ(tier.stats().bytes_written, 0.0);  // no modeled write
  EXPECT_DOUBLE_EQ(tier.resident_bytes(), 50.0);
}

// -------------------------------------------------------------- recovery --

TEST(Recovery, ReportsTimingAndMetrics) {
  TempDir dir("recovery");
  Catalog mirror;
  {
    CatalogLog log(dir.path());
    for (std::uint64_t i = 0; i < 6; ++i) {
      LogRecord r = rec(LogRecordType::kDemote, 0, i, 0, 0, 1, 4.0);
      r.seq = log.append(r).seq;
      ASSERT_TRUE(mirror.apply(r));
    }
  }
  obs::Registry registry;
  const RecoveryReport report = recover_catalog(dir.path(), &registry);
  EXPECT_EQ(report.replay.records_applied, 6u);
  EXPECT_EQ(report.replay.catalog.fingerprint(), mirror.fingerprint());
  EXPECT_GT(report.wall_us, 0.0);
  EXPECT_EQ(registry.counter("storage.recovery.runs")->value(), 1u);
  // The gauge is stamped at timer scope exit, a hair after the report's
  // explicit read — never before it.
  EXPECT_GE(registry.gauge("storage.recovery.last_us")->value(),
            report.wall_us);
  EXPECT_NE(report.to_string().find("applied=6"), std::string::npos);
}

// ------------------------------------------------------------------- env --

TEST(Env, PosixRoundtripAndErrnoMapping) {
  TempDir dir("env");
  Env* env = Env::posix();
  const std::string path = dir.path() + "/blob.bin";

  auto out = env->open_trunc(path);
  ASSERT_TRUE(out.ok());
  ASSERT_TRUE(out.value()->append("hello ").ok());
  ASSERT_TRUE(out.value()->append("world").ok());
  ASSERT_TRUE(out.value()->sync().ok());
  ASSERT_TRUE(out.value()->close().ok());

  auto read = env->read_file(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), "hello world");
  EXPECT_TRUE(env->file_exists(path));

  ASSERT_TRUE(env->truncate_file(path, 5).ok());
  EXPECT_EQ(env->read_file(path).value(), "hello");

  ASSERT_TRUE(env->rename_file(path, path + ".2").ok());
  EXPECT_FALSE(env->file_exists(path));
  auto names = env->list_dir(dir.path());
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(names.value().size(), 1u);
  EXPECT_EQ(names.value().front(), "blob.bin.2");

  auto space = env->free_bytes(dir.path());
  ASSERT_TRUE(space.ok());
  EXPECT_GT(space.value(), 0u);

  // errno mapping: ENOENT surfaces as NOT_FOUND, not a generic failure.
  EXPECT_EQ(env->read_file(dir.path() + "/nope").status().code(),
            StatusCode::kNotFound);
  ASSERT_TRUE(env->remove_file(path + ".2").ok());
  EXPECT_EQ(env->remove_file(path + ".2").code(), StatusCode::kNotFound);
}

// ------------------------------------------------------------- fault env --

TEST(FaultEnv, ScriptsFaultsPerPathOpAndNthCall) {
  TempDir dir("faultenv");
  FaultEnv fenv(Env::posix(), /*seed=*/7);
  const std::string path = dir.path() + "/target.bin";

  // Third write to *this path* fails ENOSPC; everything else is passed
  // straight through to the base env.
  fenv.inject({"target.bin", IoOp::kWrite,
               resilience::FaultKind::kDiskIoFull, /*after_calls=*/2,
               /*count=*/1, /*magnitude=*/1.0});
  auto out = fenv.open_trunc(path);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out.value()->append("aa").ok());
  EXPECT_TRUE(out.value()->append("bb").ok());
  EXPECT_EQ(out.value()->append("cc").code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(out.value()->append("dd").ok());  // window exhausted
  ASSERT_TRUE(out.value()->close().ok());
  EXPECT_EQ(Env::posix()->read_file(path).value(), "aabbdd");

  EXPECT_EQ(fenv.stats().injected_errors, 1u);
  ASSERT_EQ(fenv.journal().size(), 1u);
  // Journal lines use the basename only, so they are deterministic
  // across scratch roots.
  EXPECT_NE(fenv.journal()[0].find("target.bin"), std::string::npos);
  EXPECT_NE(fenv.journal()[0].find("disk-io-full"), std::string::npos);
}

TEST(FaultEnv, SameSeedSamePlanSameJournal) {
  resilience::FaultPlan plan;
  plan.disk_corrupt(/*node=*/0, /*at_us=*/0.0, /*duration_us=*/1e9,
                    /*flip_rate=*/1.0);
  std::vector<std::string> journals[2];
  for (int run = 0; run < 2; ++run) {
    TempDir dir("faultenv_det_" + std::to_string(run));
    FaultEnv fenv(Env::posix(), /*seed=*/99);
    fenv.arm_from_plan(plan, /*worker=*/0, /*now_us=*/1.0);
    auto out = fenv.open_trunc(dir.path() + "/x.bin");
    ASSERT_TRUE(out.ok());
    ASSERT_TRUE(out.value()->append("payload-payload-payload").ok());
    ASSERT_TRUE(out.value()->close().ok());
    journals[run] = fenv.journal();
    EXPECT_EQ(fenv.stats().bit_flips, 1u);
  }
  ASSERT_FALSE(journals[0].empty());
  EXPECT_EQ(journals[0], journals[1]);
}

// ------------------------------------------- log under media faults (a) --

TEST(CatalogLogTest, ShortWriteIsQueuedThenRecoveredLossless) {
  TempDir dir("log_shortwrite");
  FaultEnv fenv(Env::posix());
  // The 3rd log write fails EIO after landing half the frame — the
  // classic torn-tail short write.
  fenv.inject({"catalog.log", IoOp::kWrite,
               resilience::FaultKind::kDiskIoError, /*after_calls=*/2,
               /*count=*/1, /*magnitude=*/0.5});

  CatalogLog log(dir.path(), LogConfig{}, nullptr, &fenv);
  for (std::uint64_t i = 0; i < 5; ++i) {
    const AppendAck ack =
        log.append(rec(LogRecordType::kPlace, 0, i, 0, 0, 1, 4.0));
    EXPECT_EQ(ack.seq, i + 1);
    if (i == 2) {
      // The acknowledged-durability contract: the caller is TOLD the
      // write did not land, instead of a silent void return.
      EXPECT_EQ(ack.durable.code(), StatusCode::kUnavailable);
      EXPECT_TRUE(log.degraded());
    }
  }
  EXPECT_GE(log.stats().pending_records, 1u);
  EXPECT_EQ(fenv.stats().short_writes, 1u);

  // Fault window is spent: the next sync truncates the torn tail,
  // re-appends the queued frames in order, and recovers.
  ASSERT_TRUE(log.sync().ok());
  EXPECT_FALSE(log.degraded());
  EXPECT_EQ(log.stats().pending_records, 0u);
  EXPECT_EQ(log.stats().recoveries, 1u);

  // Zero acknowledged-write loss: every stamped record replays, and the
  // torn half-frame is gone.
  const ReplayResult replayed = CatalogLog::replay(dir.path());
  EXPECT_EQ(replayed.records_applied, 5u);
  EXPECT_EQ(replayed.corrupt_records, 0u);
}

TEST(CatalogLogTest, CheckpointWhileDegradedSubsumesBacklog) {
  TempDir dir("log_degraded_ckpt");
  FaultEnv fenv(Env::posix());
  fenv.inject({"catalog.log", IoOp::kWrite,
               resilience::FaultKind::kDiskIoFull, /*after_calls=*/1,
               /*count=*/std::uint64_t(-1), /*magnitude=*/1.0});

  Catalog mirror;
  CatalogLog log(dir.path(), LogConfig{}, nullptr, &fenv);
  for (std::uint64_t i = 0; i < 4; ++i) {
    LogRecord r = rec(LogRecordType::kPlace, 0, i, 0, 0, 1, 4.0);
    r.seq = log.append(r).seq;
    ASSERT_TRUE(mirror.apply(r));
  }
  EXPECT_TRUE(log.degraded());

  // ENOSPC clears (the snapshot path was never faulted); the checkpoint
  // folds every stamped record — including the disk-refused backlog —
  // into the snapshot and the backlog is dropped as obsolete.
  fenv.clear();
  ASSERT_TRUE(log.checkpoint(mirror).ok());
  EXPECT_FALSE(log.degraded());
  EXPECT_EQ(log.stats().pending_records, 0u);

  const ReplayResult replayed = CatalogLog::replay(dir.path());
  EXPECT_TRUE(replayed.snapshot_loaded);
  EXPECT_EQ(replayed.catalog.fingerprint(), mirror.fingerprint());
}

// --------------------------------------- segment store degradation (E23) --

TEST(Segment, WriteFaultDegradesToReadOnlyAndRetryIoResumes) {
  TempDir dir("seg_degrade");
  FaultEnv fenv(Env::posix());
  fenv.inject({"seg-", IoOp::kWrite, resilience::FaultKind::kDiskIoFull,
               /*after_calls=*/2, /*count=*/1, /*magnitude=*/1.0});

  SegmentStore store(dir.path(), {}, &fenv);
  ASSERT_TRUE(store.append(data::ShardKey{1, 0, 0}, 10.0).ok());
  ASSERT_TRUE(store.append(data::ShardKey{2, 0, 0}, 10.0).ok());
  // The faulted write indexes nothing and latches read-only.
  EXPECT_EQ(store.append(data::ShardKey{3, 0, 0}, 10.0).code(),
            StatusCode::kResourceExhausted);
  EXPECT_TRUE(store.read_only());
  EXPECT_FALSE(store.contains(data::ShardKey{3, 0, 0}));
  EXPECT_EQ(store.append(data::ShardKey{4, 0, 0}, 10.0).code(),
            StatusCode::kResourceExhausted);

  // Reads and in-memory erases still work while degraded; the erase's
  // tombstone frame queues for the healthy disk.
  EXPECT_TRUE(store.contains(data::ShardKey{1, 0, 0}));
  EXPECT_TRUE(store.erase(data::ShardKey{1, 0, 0}));
  EXPECT_EQ(store.pending_tombstones(), 1u);

  // The fault cleared (count=1): the probe opens a fresh segment,
  // flushes the queued tombstone, and appends work again.
  ASSERT_TRUE(store.retry_io().ok());
  EXPECT_FALSE(store.read_only());
  EXPECT_EQ(store.pending_tombstones(), 0u);
  ASSERT_TRUE(store.append(data::ShardKey{3, 0, 0}, 10.0).ok());
  EXPECT_EQ(store.stats().io_resumes, 1u);

  // Crash + reopen: the erase holds (tombstone landed), the post-resume
  // append holds, the faulted append never happened.
  SegmentStore reopened(dir.path(), {}, nullptr);
  EXPECT_FALSE(reopened.contains(data::ShardKey{1, 0, 0}));
  EXPECT_TRUE(reopened.contains(data::ShardKey{2, 0, 0}));
  EXPECT_TRUE(reopened.contains(data::ShardKey{3, 0, 0}));
  EXPECT_FALSE(reopened.contains(data::ShardKey{4, 0, 0}));
}

TEST(Segment, ShortWriteTornFrameIsDroppedOnReopen) {
  TempDir dir("seg_shortwrite");
  FaultEnv fenv(Env::posix());
  fenv.inject({"seg-", IoOp::kWrite, resilience::FaultKind::kDiskIoError,
               /*after_calls=*/1, /*count=*/1, /*magnitude=*/0.6});
  {
    SegmentStore store(dir.path(), {}, &fenv);
    ASSERT_TRUE(store.append(data::ShardKey{1, 0, 0}, 10.0).ok());
    EXPECT_EQ(store.append(data::ShardKey{2, 0, 0}, 10.0).code(),
              StatusCode::kUnavailable);
    EXPECT_EQ(fenv.stats().short_writes, 1u);
  }
  // The torn 60%-of-a-frame tail is detected by the CRC framing and
  // truncated away; only the fully written record survives.
  SegmentStore reopened(dir.path(), {}, nullptr);
  EXPECT_TRUE(reopened.contains(data::ShardKey{1, 0, 0}));
  EXPECT_FALSE(reopened.contains(data::ShardKey{2, 0, 0}));
  EXPECT_EQ(reopened.stats().corrupt_records, 1u);
}

// --------------------------------------------- crash mid-compaction (b) --

TEST(Segment, CrashDuringCompactionConvergesWithoutResurrection) {
  TempDir dir("seg_compact_crash");
  SegmentConfig config;
  config.segment_bytes = 40.0;  // a few records per segment
  FaultEnv fenv(Env::posix());
  // The victim file's unlink fails — the crash point between "live
  // records rewritten to the new segment" and "old segment erased".
  fenv.inject({"seg-", IoOp::kRemove, resilience::FaultKind::kDiskIoError,
               /*after_calls=*/0, /*count=*/1, /*magnitude=*/1.0});
  {
    SegmentStore store(dir.path(), config, &fenv);
    ASSERT_TRUE(store.append(data::ShardKey{1, 0, 0}, 20.0).ok());
    ASSERT_TRUE(store.append(data::ShardKey{2, 0, 0}, 20.0).ok());  // seals
    ASSERT_TRUE(store.append(data::ShardKey{3, 0, 0}, 20.0).ok());
    // Kill most of segment 0 so it qualifies for compaction; key 1
    // survives and must be moved.
    ASSERT_TRUE(store.erase(data::ShardKey{2, 0, 0}));
    ASSERT_EQ(store.compact(), 1u);
    // The unlink failed: both the old file (with keys 1, 2) and the new
    // records (tombstones + re-append of key 1) are on disk.
    EXPECT_GE(store.stats().io_errors, 1u);
    EXPECT_TRUE(store.contains(data::ShardKey{1, 0, 0}));
    EXPECT_FALSE(store.contains(data::ShardKey{2, 0, 0}));
    // Process "crashes" here (no clean shutdown beyond close()).
  }
  // Reopen replays both files: last-write-wins re-homes key 1 to the
  // new segment, and key 2's tombstone outranks its stale record — an
  // erased key is never resurrected by a half-finished compaction.
  SegmentStore reopened(dir.path(), config, nullptr);
  EXPECT_TRUE(reopened.contains(data::ShardKey{1, 0, 0}));
  EXPECT_FALSE(reopened.contains(data::ShardKey{2, 0, 0}));
  EXPECT_TRUE(reopened.contains(data::ShardKey{3, 0, 0}));
  EXPECT_DOUBLE_EQ(reopened.live_bytes(), 40.0);
}

// ------------------------------------------------------ scrub/quarantine --

/// Builds a store with `n` sealed one-record segments.
void fill_sealed(SegmentStore& store, std::uint64_t n) {
  for (std::uint64_t i = 0; i < n; ++i) {
    ASSERT_TRUE(store.append(data::ShardKey{i + 1, 0, 0}, 10.0).ok());
    store.seal_active();
  }
}

TEST(Scrubber, CleanStoreVerifiesEverySealedSegment) {
  TempDir dir("scrub_clean");
  SegmentStore store(dir.path(), {}, nullptr);
  fill_sealed(store, 3);
  Scrubber scrub(store);
  const ScrubReport report = scrub.full_pass();
  EXPECT_EQ(report.segments_verified, 3u);
  EXPECT_EQ(report.segments_quarantined, 0u);
  EXPECT_TRUE(report.suspects.empty());
  EXPECT_GT(report.bytes_scanned, 0.0);
}

TEST(Scrubber, ByteBudgetPacesStepsButAlwaysMakesProgress) {
  TempDir dir("scrub_budget");
  SegmentStore store(dir.path(), {}, nullptr);
  fill_sealed(store, 4);
  ScrubConfig config;
  config.bytes_per_step = 1.0;  // less than one segment: one per step
  Scrubber scrub(store, config);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(scrub.step().segments_verified, 1u);
  }
  EXPECT_EQ(scrub.stats().segments_verified, 4u);
  // The cursor wrapped: a fifth step starts the next pass.
  EXPECT_EQ(scrub.step().segments_verified, 1u);
}

TEST(Scrubber, BitRotIsQuarantinedAndNeverResurrected) {
  TempDir dir("scrub_rot");
  SegmentStore store(dir.path(), {}, nullptr);
  fill_sealed(store, 2);
  const auto sealed = store.sealed_segment_ids();
  ASSERT_EQ(sealed.size(), 2u);

  // Rot one payload bit of the first sealed segment behind the store's
  // back — the silent corruption only a scrub can find.
  const std::string path =
      dir.path() + "/seg-" + std::to_string(sealed[0]) + ".dat";
  std::string blob = slurp(path);
  ASSERT_FALSE(blob.empty());
  blob[10] ^= 0x04;
  dump(path, blob);

  Scrubber scrub(store);
  const ScrubReport report = scrub.full_pass();
  EXPECT_EQ(report.segments_verified, 1u);
  EXPECT_EQ(report.segments_quarantined, 1u);
  ASSERT_EQ(report.suspects.size(), 1u);
  EXPECT_EQ(report.suspects[0], (data::ShardKey{1, 0, 0}));

  // Suspect keys are out of the index and the file is renamed aside.
  EXPECT_FALSE(store.contains(data::ShardKey{1, 0, 0}));
  EXPECT_TRUE(store.contains(data::ShardKey{2, 0, 0}));
  EXPECT_FALSE(Env::posix()->file_exists(path));
  EXPECT_TRUE(Env::posix()->file_exists(path + ".quarantined"));

  // A second pass finds nothing left to flag, and a reopen cannot load
  // the quarantined file back (tombstones + rename both block it).
  EXPECT_EQ(scrub.full_pass().segments_quarantined, 0u);
  SegmentStore reopened(dir.path(), {}, nullptr);
  EXPECT_FALSE(reopened.contains(data::ShardKey{1, 0, 0}));
  EXPECT_TRUE(reopened.contains(data::ShardKey{2, 0, 0}));
}

// ------------------------------------- plane-level degradation + repair --

TEST(PlaneDurability, EnospcDegradesTierThenAutoResumes) {
  TempDir dir("plane_enospc");
  FaultEnv fenv(Env::posix());
  // Node 0's first segment write hits ENOSPC; the medium then "clears"
  // (count=1) and the periodic probe must bring the tier back without
  // any operator action.
  fenv.inject({"tier0", IoOp::kWrite, resilience::FaultKind::kDiskIoFull,
               /*after_calls=*/0, /*count=*/1, /*magnitude=*/1.0});

  platform::Simulator sim;
  obs::Registry registry;
  data::PlaneConfig pc;
  pc.num_nodes = 2;
  pc.replication = 1;
  pc.cache_bytes = 80.0;  // two shards: every stage evicts
  pc.shard_limit_bytes = 64.0;
  pc.storage.disk_capacity_bytes = 1e6;
  pc.storage.dir = dir.path();
  pc.storage.env = &fenv;
  pc.registry = &registry;
  data::DataPlane plane(sim, pc);

  for (std::uint64_t i = 1; i <= 60; ++i) plane.put(i, 40.0, 1);
  for (std::uint64_t i = 1; i <= 60; ++i) {
    ASSERT_TRUE(plane.stage(i, 0, [] {}).ok());
    sim.run();
  }
  const data::PlaneStats stats = plane.stats();
  // The first demotion tripped the fault, the tier went read-only, the
  // gauge went up, demotions shed — and a later probe resumed writes.
  EXPECT_EQ(stats.tier_faults, 1u);
  EXPECT_EQ(stats.tier_resumes, 1u);
  EXPECT_FALSE(plane.tier_read_only(0));
  EXPECT_GT(stats.demotions, 0u);
  EXPECT_GT(stats.demote_rejected, 0u);
  EXPECT_EQ(registry.gauge("storage.tier.read_only", {{"node", "0"}})->value(),
            0.0);
  // The journal records both transitions, in order.
  ASSERT_GE(plane.scrub_journal().size(), 2u);
  EXPECT_EQ(plane.scrub_journal()[0], "tier-read-only node=0");
  EXPECT_EQ(plane.scrub_journal()[1], "tier-resumed node=0");
}

// ------------------------------ scrub/repair determinism, per-policy (c) --

/// Runs one fixed rot-scrub-repair scenario and returns every
/// deterministic event trace it produced: the plane's scrub/repair
/// journal followed by the per-node scrubber journal.
std::vector<std::string> run_rot_scenario(data::EvictionPolicy policy,
                                          const std::string& tag) {
  TempDir dir("scrub_det_" + tag);
  platform::Simulator sim;
  data::PlaneConfig pc;
  pc.num_nodes = 2;
  pc.replication = 2;
  pc.eviction = policy;
  pc.cache_bytes = 1e6;  // generous: policies differ only in metadata
  pc.shard_limit_bytes = 64.0;
  pc.storage.disk_capacity_bytes = 1e6;
  pc.storage.dir = dir.path();
  pc.storage.segment.segment_bytes = 40.0;
  data::DataPlane plane(sim, pc);

  for (std::uint64_t i = 1; i <= 6; ++i) plane.put(i, 32.0, 0);
  // Exercise the cache layer (so LRU/LFU/cost-aware actually diverge in
  // their bookkeeping) without letting it influence what is on disk.
  for (std::uint64_t i = 1; i <= 6; ++i) {
    EXPECT_TRUE(plane.stage(i, 1, [] {}).ok());
    EXPECT_TRUE(plane.stage(i, 1, [] {}).ok());
  }
  sim.run();
  // Identical durable contents for every policy: one sealed
  // single-record segment per shard on node 1's tier.
  for (std::uint64_t i = 1; i <= 6; ++i) {
    EXPECT_TRUE(plane.tier(1)->demote(data::ShardKey{i, 0, 0}, 32.0).ok());
    plane.tier(1)->store().seal_active();
  }
  sim.run();

  // Deterministic rot: one bit in the 1st and 3rd sealed segments.
  for (const std::uint64_t id : {0ULL, 2ULL}) {
    const std::string path =
        dir.path() + "/tier1/seg-" + std::to_string(id) + ".dat";
    std::string blob = slurp(path);
    EXPECT_FALSE(blob.empty());
    blob[10] ^= 0x01;
    dump(path, blob);
  }

  const ScrubReport report = plane.scrub_node(1);  // budget covers all
  EXPECT_EQ(report.segments_quarantined, 2u);
  sim.run();  // drain the repair transfers

  // Zero loss: every object still available after rot + repair.
  for (std::uint64_t i = 1; i <= 6; ++i) EXPECT_TRUE(plane.available(i));

  std::vector<std::string> events = plane.scrub_journal();
  const auto& scrubbed = plane.scrubber(1)->journal();
  events.insert(events.end(), scrubbed.begin(), scrubbed.end());
  return events;
}

class ScrubDeterminism
    : public ::testing::TestWithParam<data::EvictionPolicy> {};

TEST_P(ScrubDeterminism, SameFaultsSameJournalWhateverTheCachePolicy) {
  const auto trace_a = run_rot_scenario(GetParam(), "a");
  const auto trace_b = run_rot_scenario(GetParam(), "b");
  ASSERT_FALSE(trace_a.empty());
  // Same seed + same faults ⇒ byte-identical event sequence...
  EXPECT_EQ(trace_a, trace_b);
  // ...and the cache policy is not allowed to leak into scrub/repair:
  // every policy's trace matches the LRU baseline byte for byte.
  const auto baseline = run_rot_scenario(data::EvictionPolicy::kLru, "base");
  EXPECT_EQ(trace_a, baseline);
}

INSTANTIATE_TEST_SUITE_P(Policies, ScrubDeterminism,
                         ::testing::Values(data::EvictionPolicy::kLru,
                                           data::EvictionPolicy::kLfu,
                                           data::EvictionPolicy::kCostAware));

}  // namespace
}  // namespace everest::storage
