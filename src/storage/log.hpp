// The crash-recoverable catalog log: a write-ahead log of catalog
// mutations plus a snapshot file, together reconstructing the data
// plane's durable state after any fail-stop.
//
//   dir/catalog.log   — framed LogRecords, append-only, fsync-batched
//   dir/catalog.snap  — Catalog::encode() written atomically
//                       (tmp + fsync + rename)
//
// Checkpointing is two-phase — write_snapshot() then truncate_log() —
// and crashing between the phases is safe by design: the snapshot
// carries last_seq, every record replays idempotently (seq guard), so
// snapshot + untruncated log converges to the same catalog as the log
// alone. Corrupt or torn tail records are skipped and counted
// (`storage.log.corrupt_records`), never fatal; a corrupt snapshot is
// ignored and replay falls back to the full log.
//
// All file I/O goes through an injectable storage::Env with every
// result checked. A failed write degrades instead of lying: the frame
// is retained in a pending queue, the ack carries the error, and the
// log self-heals when I/O recovers — truncate back to the last fully
// committed byte (cutting any short-write torn frame), re-append the
// pending frames, fsync. A successful checkpoint also clears the
// backlog, because the snapshot (written from the in-memory mirror)
// already folds every stamped record.
//
// append() is thread-safe (the serving federation logs input stagings
// from worker threads); everything else is setup/recovery-path.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "obs/registry.hpp"
#include "storage/catalog.hpp"
#include "storage/env.hpp"
#include "storage/format.hpp"

namespace everest::storage {

struct LogConfig {
  /// fsync after this many unsynced appends (group commit). 1 = every
  /// record (safest, slowest); large values batch the flush cost.
  std::size_t sync_every = 64;
};

struct LogStats {
  std::uint64_t appends = 0;
  std::uint64_t syncs = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t io_errors = 0;   ///< failed writes/syncs/opens
  std::uint64_t recoveries = 0;  ///< degraded → healthy transitions
  std::uint64_t pending_records = 0;  ///< frames awaiting a healthy disk
  double log_bytes = 0.0;  ///< bytes durably appended since open/truncate
};

/// Replayed state plus the accounting the recovery metrics report.
struct ReplayResult {
  Catalog catalog;
  bool snapshot_loaded = false;
  std::uint64_t records_applied = 0;
  std::uint64_t records_skipped = 0;  ///< seq guard (checkpoint overlap)
  std::uint64_t corrupt_records = 0;  ///< torn/corrupt frames, snapshot incl.
};

/// Outcome of one append. The sequence number is ALWAYS stamped and
/// valid (the in-memory catalog mirror consumes it even while the disk
/// is failing); `durable` reports whether the frame reached the file or
/// is queued behind an I/O fault, pending recovery or a checkpoint.
struct AppendAck {
  std::uint64_t seq = 0;
  Status durable;
  [[nodiscard]] bool ok() const { return durable.ok(); }
};

class CatalogLog {
 public:
  /// Opens (creating if needed) the log under `dir`. Scans any existing
  /// log tail so sequence numbers continue where the previous life
  /// stopped. `registry` (borrowed, may be null) receives
  /// storage.log.* counters. `env` (borrowed, may be null = posix) is
  /// the filesystem boundary — inject a FaultEnv to script media
  /// faults.
  explicit CatalogLog(std::string dir, LogConfig config = {},
                      obs::Registry* registry = nullptr, Env* env = nullptr);
  ~CatalogLog();

  CatalogLog(const CatalogLog&) = delete;
  CatalogLog& operator=(const CatalogLog&) = delete;

  /// Stamps the record with the next sequence number, appends, and
  /// group-commits per the sync policy. Thread-safe. On I/O failure the
  /// frame is queued and the ack's `durable` carries the error; the
  /// caller keeps the seq (the mirror must not diverge from the stamp
  /// stream) and can surface the degradation.
  AppendAck append(LogRecord record);

  /// Forces buffered records to disk now. While degraded this is also
  /// the self-healing probe: truncate to the last committed byte,
  /// re-append the pending frames, fsync. Returns the current disk
  /// health (OK = everything acked so far is durable).
  Status sync();

  /// True while appended frames are queued behind an I/O fault.
  [[nodiscard]] bool degraded() const;

  // ---- checkpointing ------------------------------------------------------

  /// Phase 1: atomically replaces catalog.snap with `catalog`'s
  /// encoding (tmp file + fsync + rename).
  Status write_snapshot(const Catalog& catalog);

  /// Phase 2: truncates the log. Only safe after a successful
  /// write_snapshot of a catalog at least as new as every logged record
  /// — which is also why it clears the pending backlog: those stamped
  /// records are folded into the snapshot already.
  Status truncate_log();

  /// write_snapshot + truncate_log. A crash between the phases is the
  /// torn window replay is built to converge through.
  Status checkpoint(const Catalog& catalog);

  // ---- recovery -----------------------------------------------------------

  /// Rebuilds the catalog from snapshot + log in `dir`. Static: usable
  /// before (or without) an open CatalogLog on the same directory.
  static ReplayResult replay(const std::string& dir,
                             obs::Registry* registry = nullptr,
                             Env* env = nullptr);

  /// Streams every decodable log record (after the snapshot barrier is
  /// NOT applied — callers see the raw append order). Returns damaged
  /// frames encountered. Used by warm-restart paths that care about
  /// ordering, not folding.
  static std::uint64_t replay_records(
      const std::string& dir, const std::function<void(const LogRecord&)>& fn,
      Env* env = nullptr);

  [[nodiscard]] LogStats stats() const;
  [[nodiscard]] std::uint64_t next_seq() const;
  [[nodiscard]] const std::string& dir() const { return dir_; }

  static std::string log_path(const std::string& dir);
  static std::string snapshot_path(const std::string& dir);

 private:
  void open_file_locked();
  /// Group-commit flush; while degraded, attempts self-healing first.
  Status sync_locked();
  /// Truncate-to-committed + replay pending + reopen. OK = healthy.
  Status recover_io_locked();
  void note_io_error_locked(const Status& status);

  std::string dir_;
  LogConfig config_;
  Env* env_;

  mutable std::mutex mu_;
  std::unique_ptr<WritableFile> file_;
  std::uint64_t next_seq_ = 1;
  std::size_t unsynced_ = 0;
  /// Bytes known to be fully and correctly appended to catalog.log —
  /// the truncation point that cuts short-write torn frames on heal.
  std::uint64_t committed_bytes_ = 0;
  /// Encoded frames stamped but not yet on disk (I/O fault backlog).
  std::vector<std::string> pending_;
  /// append()'s encode buffer, reused so a healthy append allocates
  /// nothing; copied into pending_ only on the degraded path.
  std::string frame_;
  Status last_error_;
  LogStats stats_;

  obs::Counter* ctr_appends_ = nullptr;
  obs::Counter* ctr_syncs_ = nullptr;
  obs::Counter* ctr_checkpoints_ = nullptr;
  obs::Counter* ctr_io_errors_ = nullptr;
  obs::Counter* ctr_recoveries_ = nullptr;
  obs::Gauge* gauge_degraded_ = nullptr;
};

}  // namespace everest::storage
