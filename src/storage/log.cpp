#include "storage/log.hpp"

#include "common/logging.hpp"

namespace everest::storage {

std::string CatalogLog::log_path(const std::string& dir) {
  return dir + "/catalog.log";
}

std::string CatalogLog::snapshot_path(const std::string& dir) {
  return dir + "/catalog.snap";
}

namespace {

/// Whole-file read through the env; missing file = empty (a fresh log).
std::string read_or_empty(Env* env, const std::string& path) {
  Result<std::string> blob = env->read_file(path);
  return blob.ok() ? std::move(blob).value() : std::string();
}

/// Length of the valid frame prefix of a log blob (frames are fixed
/// size, so this is good-frames × frame-size). Everything past it is a
/// torn or corrupt tail.
std::uint64_t valid_prefix_bytes(const std::string& blob) {
  ByteReader reader(blob);
  std::uint64_t frames = 0;
  while (true) {
    LogRecord record;
    const DecodeStatus status = decode_record(reader, &record);
    if (status != DecodeStatus::kOk) break;
    ++frames;
  }
  return frames * kRecordFrameBytes;
}

}  // namespace

CatalogLog::CatalogLog(std::string dir, LogConfig config,
                       obs::Registry* registry, Env* env)
    : dir_(std::move(dir)), config_(config),
      env_(env != nullptr ? env : Env::posix()) {
  if (config_.sync_every == 0) config_.sync_every = 1;
  if (registry != nullptr) {
    ctr_appends_ = registry->counter("storage.log.appends");
    ctr_syncs_ = registry->counter("storage.log.syncs");
    ctr_checkpoints_ = registry->counter("storage.log.checkpoints");
    ctr_io_errors_ = registry->counter("storage.log.io_errors");
    ctr_recoveries_ = registry->counter("storage.log.recoveries");
    // 0/1 flag; kMax so a federation merge reads 1 when ANY node degraded.
    gauge_degraded_ =
        registry->gauge("storage.log.degraded", obs::GaugeKind::kMax);
  }
  const Status made = env_->create_dirs(dir_);
  if (!made.ok()) {
    EVEREST_LOG(kError, "storage")
        << "cannot create log dir " << dir_ << ": " << made.to_string();
  }
  // Sequence numbers must keep rising across restarts: resume after the
  // highest seq any surviving file carries.
  const ReplayResult prior = replay(dir_, nullptr, env_);
  next_seq_ = prior.catalog.last_seq() + 1;
  // Cut any torn tail NOW, before appending: a record written after a
  // damaged region would be unreachable by replay (which stops at the
  // first bad frame) — durable in name only.
  const std::string blob = read_or_empty(env_, log_path(dir_));
  committed_bytes_ = valid_prefix_bytes(blob);
  if (blob.size() > committed_bytes_) {
    const Status cut = env_->truncate_file(log_path(dir_), committed_bytes_);
    if (!cut.ok()) {
      EVEREST_LOG(kWarn, "storage")
          << "cannot trim torn log tail in " << dir_ << ": "
          << cut.to_string();
      committed_bytes_ = blob.size();
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  open_file_locked();
}

CatalogLog::~CatalogLog() {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ != nullptr) {
    (void)file_->sync();
    (void)file_->close();
    file_.reset();
  }
}

void CatalogLog::open_file_locked() {
  Result<std::unique_ptr<WritableFile>> opened =
      env_->open_append(log_path(dir_));
  if (!opened.ok()) {
    EVEREST_LOG(kError, "storage")
        << "cannot open catalog log " << log_path(dir_) << ": "
        << opened.status().to_string();
    note_io_error_locked(opened.status());
    return;
  }
  file_ = std::move(opened).value();
}

void CatalogLog::note_io_error_locked(const Status& status) {
  ++stats_.io_errors;
  if (ctr_io_errors_ != nullptr) ctr_io_errors_->inc();
  if (last_error_.ok()) {
    EVEREST_LOG(kWarn, "storage")
        << "catalog log degraded: " << status.to_string();
  }
  last_error_ = status;
  if (gauge_degraded_ != nullptr) gauge_degraded_->set(1.0);
  // The handle's write offset is untrustworthy after a failure (a short
  // write may sit past committed_bytes_); recovery reopens from scratch.
  file_.reset();
}

AppendAck CatalogLog::append(LogRecord record) {
  AppendAck ack;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ack.seq = next_seq_++;
    record.seq = ack.seq;
    frame_.clear();
    encode_record(record, frame_);
    ++stats_.appends;
    if (!last_error_.ok() || file_ == nullptr) {
      // Degraded: stamp and queue. The frame reaches disk when the
      // fault clears (sync probe) or is subsumed by a checkpoint.
      pending_.push_back(frame_);
      stats_.pending_records = pending_.size();
      ack.durable = last_error_.ok()
                        ? Unavailable("catalog log file is not open")
                        : last_error_;
    } else {
      const Status written = file_->append(frame_);
      if (written.ok()) {
        committed_bytes_ += frame_.size();
        stats_.log_bytes += static_cast<double>(frame_.size());
        if (++unsynced_ >= config_.sync_every) {
          ack.durable = sync_locked();
        }
      } else {
        note_io_error_locked(written);
        pending_.push_back(frame_);
        stats_.pending_records = pending_.size();
        ack.durable = written;
      }
    }
  }
  if (ctr_appends_ != nullptr) ctr_appends_->inc();
  return ack;
}

Status CatalogLog::sync() {
  std::lock_guard<std::mutex> lock(mu_);
  return sync_locked();
}

Status CatalogLog::sync_locked() {
  if (!last_error_.ok() || file_ == nullptr) {
    EVEREST_RETURN_IF_ERROR(recover_io_locked());
  }
  if (unsynced_ > 0) {
    const Status synced = file_->sync();
    if (!synced.ok()) {
      note_io_error_locked(synced);
      return synced;
    }
    unsynced_ = 0;
    ++stats_.syncs;
    if (ctr_syncs_ != nullptr) ctr_syncs_->inc();
  }
  return OkStatus();
}

Status CatalogLog::recover_io_locked() {
  file_.reset();
  // Cut back to the last byte known fully written: a faulted append may
  // have left a short-write torn frame past it.
  if (env_->file_exists(log_path(dir_))) {
    const Status cut = env_->truncate_file(log_path(dir_), committed_bytes_);
    if (!cut.ok()) {
      last_error_ = cut;
      return cut;
    }
  }
  Result<std::unique_ptr<WritableFile>> opened =
      env_->open_append(log_path(dir_));
  if (!opened.ok()) {
    last_error_ = opened.status();
    return opened.status();
  }
  file_ = std::move(opened).value();
  std::size_t drained = 0;
  for (; drained < pending_.size(); ++drained) {
    const std::string& frame = pending_[drained];
    const Status written = file_->append(frame);
    if (!written.ok()) {
      pending_.erase(pending_.begin(),
                     pending_.begin() + static_cast<std::ptrdiff_t>(drained));
      stats_.pending_records = pending_.size();
      note_io_error_locked(written);
      return written;
    }
    committed_bytes_ += frame.size();
    stats_.log_bytes += static_cast<double>(frame.size());
  }
  const bool was_degraded = !last_error_.ok();
  pending_.clear();
  stats_.pending_records = 0;
  last_error_ = OkStatus();
  unsynced_ += drained;
  if (was_degraded) {
    ++stats_.recoveries;
    if (ctr_recoveries_ != nullptr) ctr_recoveries_->inc();
    if (gauge_degraded_ != nullptr) gauge_degraded_->set(0.0);
    EVEREST_LOG(kInfo, "storage")
        << "catalog log recovered; " << drained << " pending record(s) "
        << "replayed to disk";
  }
  return OkStatus();
}

bool CatalogLog::degraded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return !last_error_.ok();
}

Status CatalogLog::write_snapshot(const Catalog& catalog) {
  const std::string tmp = snapshot_path(dir_) + ".tmp";
  Result<std::unique_ptr<WritableFile>> out = env_->open_trunc(tmp);
  if (!out.ok()) return out.status();
  WritableFile& file = *out.value();
  EVEREST_RETURN_IF_ERROR(file.append(catalog.encode()));
  EVEREST_RETURN_IF_ERROR(file.sync());
  EVEREST_RETURN_IF_ERROR(file.close());
  return env_->rename_file(tmp, snapshot_path(dir_));  // atomic on POSIX
}

Status CatalogLog::truncate_log() {
  std::lock_guard<std::mutex> lock(mu_);
  file_.reset();
  Result<std::unique_ptr<WritableFile>> trunc =
      env_->open_trunc(log_path(dir_));
  if (!trunc.ok()) {
    note_io_error_locked(trunc.status());
    return trunc.status();
  }
  {
    WritableFile& file = *trunc.value();
    const Status synced = file.sync();
    if (!synced.ok()) {
      note_io_error_locked(synced);
      return synced;
    }
    (void)file.close();
  }
  committed_bytes_ = 0;
  stats_.log_bytes = 0.0;
  unsynced_ = 0;
  // Every stamped record — including any fault backlog — is folded into
  // the snapshot this truncation follows: the backlog is obsolete.
  pending_.clear();
  stats_.pending_records = 0;
  last_error_ = OkStatus();
  if (gauge_degraded_ != nullptr) gauge_degraded_->set(0.0);
  open_file_locked();
  if (!last_error_.ok()) return last_error_;
  ++stats_.checkpoints;
  if (ctr_checkpoints_ != nullptr) ctr_checkpoints_->inc();
  return OkStatus();
}

Status CatalogLog::checkpoint(const Catalog& catalog) {
  // Try to land every buffered record first; a still-degraded log is
  // fine — `catalog` already folds every stamped seq, so the snapshot
  // subsumes whatever the disk refused.
  (void)sync();
  EVEREST_RETURN_IF_ERROR(write_snapshot(catalog));
  return truncate_log();
}

ReplayResult CatalogLog::replay(const std::string& dir,
                                obs::Registry* registry, Env* env) {
  if (env == nullptr) env = Env::posix();
  ReplayResult result;

  const std::string snap = read_or_empty(env, snapshot_path(dir));
  if (!snap.empty()) {
    Result<Catalog> decoded = Catalog::decode(snap);
    if (decoded.ok()) {
      result.catalog = std::move(decoded).value();
      result.snapshot_loaded = true;
    } else {
      // A damaged snapshot is just a missed shortcut: the log still
      // holds everything (truncation only follows a durable snapshot).
      ++result.corrupt_records;
      EVEREST_LOG(kWarn, "storage")
          << "ignoring corrupt snapshot in " << dir << ": "
          << decoded.status().to_string();
    }
  }

  result.corrupt_records += replay_records(
      dir,
      [&](const LogRecord& record) {
        if (result.catalog.apply(record)) {
          ++result.records_applied;
        } else {
          ++result.records_skipped;
        }
      },
      env);

  if (registry != nullptr) {
    registry->counter("storage.log.corrupt_records")
        ->inc(result.corrupt_records);
    registry->counter("storage.log.replayed_records")
        ->inc(result.records_applied);
  }
  return result;
}

std::uint64_t CatalogLog::replay_records(
    const std::string& dir, const std::function<void(const LogRecord&)>& fn,
    Env* env) {
  if (env == nullptr) env = Env::posix();
  const std::string blob = read_or_empty(env, log_path(dir));
  ByteReader reader(blob);
  std::uint64_t damaged = 0;
  while (true) {
    LogRecord record;
    const DecodeStatus status = decode_record(reader, &record);
    if (status == DecodeStatus::kEndOfInput) break;
    if (status != DecodeStatus::kOk) {
      // Damaged frame: everything before it already replayed; nothing
      // after it is trustworthy. Count and stop — never crash.
      ++damaged;
      break;
    }
    fn(record);
  }
  return damaged;
}

LogStats CatalogLog::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::uint64_t CatalogLog::next_seq() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_seq_;
}

}  // namespace everest::storage
