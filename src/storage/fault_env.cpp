#include "storage/fault_env.hpp"

#include <algorithm>
#include <utility>

namespace everest::storage {

using resilience::FaultKind;

namespace {

std::string_view to_string(IoOp op) {
  switch (op) {
    case IoOp::kOpen: return "open";
    case IoOp::kRead: return "read";
    case IoOp::kWrite: return "write";
    case IoOp::kSync: return "sync";
    case IoOp::kRename: return "rename";
    case IoOp::kRemove: return "remove";
  }
  return "?";
}

/// Journal/display name: the path's final component (temp-dir prefixes
/// would make otherwise-identical runs diverge byte-wise).
std::string leaf(const std::string& path) {
  const std::size_t pos = path.find_last_of('/');
  return pos == std::string::npos ? path : path.substr(pos + 1);
}

bool is_disk_fault(FaultKind kind) {
  return kind == FaultKind::kDiskIoError || kind == FaultKind::kDiskIoFull ||
         kind == FaultKind::kDiskIoCorrupt || kind == FaultKind::kDiskIoSlow;
}

Status injected_status(FaultKind kind, const std::string& path, IoOp op) {
  const std::string what = std::string(to_string(op)) + " " + leaf(path);
  if (kind == FaultKind::kDiskIoFull) {
    return ResourceExhausted("injected ENOSPC: " + what);
  }
  return Unavailable("injected EIO: " + what);
}

/// Pass-through file that consults the FaultEnv before every write/sync.
class FaultFile final : public WritableFile {
 public:
  FaultFile(FaultEnv* env, std::unique_ptr<WritableFile> base,
            std::string path)
      : env_(env), base_(std::move(base)), path_(std::move(path)) {}

  Status append(std::string_view data) override {
    const FaultEnv::Decision d = env_->decide(path_, IoOp::kWrite);
    if (!d.fire) return base_->append(data);
    if (d.kind == FaultKind::kDiskIoCorrupt) {
      std::string damaged(data);
      env_->flip_bit(damaged);
      env_->record(path_, IoOp::kWrite, d.kind, "bit-flip");
      return base_->append(damaged);  // silent: the write "succeeds"
    }
    if (d.kind == FaultKind::kDiskIoSlow) {
      env_->record(path_, IoOp::kWrite, d.kind, "slow");
      return base_->append(data);
    }
    // EIO/ENOSPC, optionally leaving a short-write prefix behind —
    // exactly the torn frame a crashed append would leave.
    if (d.magnitude > 0.0 && d.magnitude < 1.0 && !data.empty()) {
      const auto prefix = static_cast<std::size_t>(
          d.magnitude * static_cast<double>(data.size()));
      if (prefix > 0) {
        (void)base_->append(data.substr(0, prefix));
        env_->note_short_write();
      }
    }
    env_->record(path_, IoOp::kWrite, d.kind, "fail");
    return injected_status(d.kind, path_, IoOp::kWrite);
  }

  Status sync() override {
    const FaultEnv::Decision d = env_->decide(path_, IoOp::kSync);
    if (d.fire) {
      if (d.kind == FaultKind::kDiskIoSlow) {
        env_->note_slow_sync(d.magnitude);
        env_->record(path_, IoOp::kSync, d.kind, "slow");
        return base_->sync();
      }
      if (d.kind != FaultKind::kDiskIoCorrupt) {
        env_->record(path_, IoOp::kSync, d.kind, "fail");
        return injected_status(d.kind, path_, IoOp::kSync);
      }
    }
    return base_->sync();
  }

  Status close() override { return base_->close(); }

 private:
  FaultEnv* env_;
  std::unique_ptr<WritableFile> base_;
  std::string path_;
};

}  // namespace

FaultEnv::FaultEnv(Env* base, std::uint64_t seed)
    : base_(base), rng_(seed ^ 0xD15CF417ULL) {}

void FaultEnv::inject(FaultRule rule) {
  std::lock_guard<std::mutex> lock(mu_);
  rules_.push_back(std::move(rule));
  rule_calls_.push_back(0);
}

void FaultEnv::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  rules_.clear();
  rule_calls_.clear();
  journal_.clear();
}

void FaultEnv::arm_from_plan(const resilience::FaultPlan& plan, int worker,
                             double now_us, const std::string& path_substr) {
  std::lock_guard<std::mutex> lock(mu_);
  // Plan-derived rules are standing windows: rebuild them wholesale for
  // the current clock, keeping manually injected rules (and their call
  // counts) untouched.
  for (std::size_t i = rules_.size(); i-- > 0;) {
    if (rules_[i].from_plan) {
      rules_.erase(rules_.begin() + static_cast<std::ptrdiff_t>(i));
      rule_calls_.erase(rule_calls_.begin() + static_cast<std::ptrdiff_t>(i));
    }
  }
  auto arm = [&](IoOp op, FaultKind kind, double magnitude) {
    rules_.push_back({path_substr, op, kind, 0, std::uint64_t(-1), magnitude,
                      /*from_plan=*/true});
    rule_calls_.push_back(0);
  };
  for (const resilience::FaultEvent& e : plan.events()) {
    if (!is_disk_fault(e.kind) || !e.covers(worker, now_us)) continue;
    switch (e.kind) {
      case FaultKind::kDiskIoError:
        arm(IoOp::kWrite, e.kind, e.magnitude);
        arm(IoOp::kSync, e.kind, e.magnitude);
        break;
      case FaultKind::kDiskIoFull:
        arm(IoOp::kWrite, e.kind, e.magnitude);
        break;
      case FaultKind::kDiskIoCorrupt:
        arm(IoOp::kWrite, e.kind, e.magnitude);
        arm(IoOp::kRead, e.kind, e.magnitude);
        break;
      case FaultKind::kDiskIoSlow:
        arm(IoOp::kSync, e.kind, e.magnitude);
        break;
      default:
        break;
    }
  }
}

std::vector<std::string> FaultEnv::journal() const {
  std::lock_guard<std::mutex> lock(mu_);
  return journal_;
}

FaultEnvStats FaultEnv::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

FaultEnv::Decision FaultEnv::decide(const std::string& path, IoOp op) {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.calls;
  Decision out;
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    const FaultRule& rule = rules_[i];
    if (rule.op != op) continue;
    if (!rule.path_substr.empty() &&
        path.find(rule.path_substr) == std::string::npos) {
      continue;
    }
    const std::uint64_t n = rule_calls_[i]++;
    if (out.fire || n < rule.after_calls ||
        n - rule.after_calls >= rule.count) {
      continue;
    }
    if (rule.kind == FaultKind::kDiskIoCorrupt && rule.magnitude < 1.0 &&
        rng_.uniform() >= rule.magnitude) {
      continue;  // seeded coin: this op escapes corruption
    }
    out.fire = true;
    out.kind = rule.kind;
    out.magnitude = rule.magnitude;
  }
  return out;
}

void FaultEnv::record(const std::string& path, IoOp op, FaultKind kind,
                      const std::string& detail) {
  std::lock_guard<std::mutex> lock(mu_);
  if (kind == FaultKind::kDiskIoError || kind == FaultKind::kDiskIoFull) {
    ++stats_.injected_errors;
  }
  journal_.push_back("inject op=" + std::string(to_string(op)) +
                     " path=" + leaf(path) + " kind=" +
                     std::string(resilience::to_string(kind)) + " " + detail);
}

void FaultEnv::flip_bit(std::string& data) {
  std::lock_guard<std::mutex> lock(mu_);
  if (data.empty()) return;
  const std::uint64_t bit = rng_.uniform_int(data.size() * 8);
  data[bit / 8] = static_cast<char>(data[bit / 8] ^ (1u << (bit % 8)));
  ++stats_.bit_flips;
}

void FaultEnv::note_short_write() {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.short_writes;
}

void FaultEnv::note_slow_sync(double extra_us) {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.slow_syncs;
  stats_.slow_sync_us += extra_us;
}

Result<std::unique_ptr<WritableFile>> FaultEnv::open_append(
    const std::string& path) {
  const Decision d = decide(path, IoOp::kOpen);
  if (d.fire && d.kind != FaultKind::kDiskIoCorrupt &&
      d.kind != FaultKind::kDiskIoSlow) {
    record(path, IoOp::kOpen, d.kind, "fail");
    return injected_status(d.kind, path, IoOp::kOpen);
  }
  auto base = base_->open_append(path);
  if (!base.ok()) return base.status();
  return std::unique_ptr<WritableFile>(
      new FaultFile(this, std::move(base).value(), path));
}

Result<std::unique_ptr<WritableFile>> FaultEnv::open_trunc(
    const std::string& path) {
  const Decision d = decide(path, IoOp::kOpen);
  if (d.fire && d.kind != FaultKind::kDiskIoCorrupt &&
      d.kind != FaultKind::kDiskIoSlow) {
    record(path, IoOp::kOpen, d.kind, "fail");
    return injected_status(d.kind, path, IoOp::kOpen);
  }
  auto base = base_->open_trunc(path);
  if (!base.ok()) return base.status();
  return std::unique_ptr<WritableFile>(
      new FaultFile(this, std::move(base).value(), path));
}

Result<std::string> FaultEnv::read_file(const std::string& path) {
  const Decision d = decide(path, IoOp::kRead);
  if (d.fire && (d.kind == FaultKind::kDiskIoError ||
                 d.kind == FaultKind::kDiskIoFull)) {
    record(path, IoOp::kRead, d.kind, "fail");
    return injected_status(d.kind, path, IoOp::kRead);
  }
  Result<std::string> blob = base_->read_file(path);
  if (blob.ok() && d.fire && d.kind == FaultKind::kDiskIoCorrupt) {
    std::string damaged = std::move(blob).value();
    flip_bit(damaged);
    record(path, IoOp::kRead, d.kind, "bit-flip");
    return damaged;
  }
  return blob;
}

Status FaultEnv::create_dirs(const std::string& path) {
  return base_->create_dirs(path);
}

Status FaultEnv::rename_file(const std::string& from, const std::string& to) {
  const Decision d = decide(from, IoOp::kRename);
  if (d.fire && (d.kind == FaultKind::kDiskIoError ||
                 d.kind == FaultKind::kDiskIoFull)) {
    record(from, IoOp::kRename, d.kind, "fail");
    return injected_status(d.kind, from, IoOp::kRename);
  }
  return base_->rename_file(from, to);
}

Status FaultEnv::remove_file(const std::string& path) {
  const Decision d = decide(path, IoOp::kRemove);
  if (d.fire && (d.kind == FaultKind::kDiskIoError ||
                 d.kind == FaultKind::kDiskIoFull)) {
    record(path, IoOp::kRemove, d.kind, "fail");
    return injected_status(d.kind, path, IoOp::kRemove);
  }
  return base_->remove_file(path);
}

Status FaultEnv::truncate_file(const std::string& path, std::uint64_t size) {
  return base_->truncate_file(path, size);
}

Result<std::vector<std::string>> FaultEnv::list_dir(const std::string& path) {
  return base_->list_dir(path);
}

Result<std::uint64_t> FaultEnv::free_bytes(const std::string& path) {
  return base_->free_bytes(path);
}

bool FaultEnv::file_exists(const std::string& path) {
  return base_->file_exists(path);
}

}  // namespace everest::storage
