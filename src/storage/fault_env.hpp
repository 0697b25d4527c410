// FaultEnv — a seed-deterministic fault-injecting storage::Env. Wraps a
// base Env (usually Env::posix()) and scripts media faults per
// (path substring, operation, nth matching call):
//
//   * kDiskIoError   — the call fails with UNAVAILABLE ("EIO"); writes
//     may be short (a magnitude fraction of the data lands first, the
//     torn-tail case replay must truncate through);
//   * kDiskIoFull    — writes fail with RESOURCE_EXHAUSTED ("ENOSPC"),
//     the graceful-degradation trigger;
//   * kDiskIoCorrupt — the call succeeds but one deterministically
//     chosen bit of the data is flipped (silent corruption, caught by
//     frame CRCs and the scrubber);
//   * kDiskIoSlow    — fsync succeeds but a modeled delay is recorded
//     (slow_sync_us accumulates; simulations charge it to their clock).
//
// Rules can be armed directly (`inject`) or derived from the standing
// resilience::FaultPlan window machinery (`arm_from_plan`), so chaos
// timelines schedule disk faults alongside crashes and partitions. The
// same seed + the same rules reproduce the same injected-event journal
// byte for byte — the determinism the TEST_P suites pin.
//
// Thread-compat: call sites in this repo drive one store per thread;
// the injection bookkeeping is guarded by a mutex so concurrent
// CatalogLog appends through a shared FaultEnv stay well-defined.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "resilience/fault_plan.hpp"
#include "storage/env.hpp"

namespace everest::storage {

/// Which Env entry point a rule intercepts.
enum class IoOp : std::uint8_t {
  kOpen = 0,
  kRead,
  kWrite,
  kSync,
  kRename,
  kRemove,
};

/// One armed injection: fault the `count` matching calls after skipping
/// `after_calls` of them. An empty `path_substr` matches every path.
struct FaultRule {
  std::string path_substr;
  IoOp op = IoOp::kWrite;
  resilience::FaultKind kind = resilience::FaultKind::kDiskIoError;
  std::uint64_t after_calls = 0;
  std::uint64_t count = std::uint64_t(-1);
  /// kDiskIoError/kDiskIoFull: fraction of the data written before the
  /// failure (short write; >=1 writes nothing). kDiskIoCorrupt: flip
  /// probability per call. kDiskIoSlow: extra fsync µs.
  double magnitude = 1.0;
  /// Internal: true when arm_from_plan owns this rule's lifetime.
  bool from_plan = false;
};

struct FaultEnvStats {
  std::uint64_t calls = 0;            ///< Env ops seen (all, faulted or not)
  std::uint64_t injected_errors = 0;  ///< EIO + ENOSPC failures returned
  std::uint64_t short_writes = 0;     ///< failed writes that left a prefix
  std::uint64_t bit_flips = 0;        ///< silent corruptions applied
  std::uint64_t slow_syncs = 0;
  double slow_sync_us = 0.0;          ///< modeled extra fsync time
};

class FaultEnv final : public Env {
 public:
  explicit FaultEnv(Env* base, std::uint64_t seed = 42);

  /// Arms one rule. Rules are evaluated in arm order; the first match
  /// whose window (after_calls, count) covers the call fires.
  void inject(FaultRule rule);
  /// Drops every armed rule (manual and plan-derived) and the journal.
  void clear();

  /// Re-arms the plan-derived rules from every kDiskIo* window of
  /// `plan` covering (`worker`, `now_us`). Manual rules are kept. Call
  /// whenever the simulation clock advances past fault boundaries —
  /// the standing-window analogue of FaultPlan::severity().
  void arm_from_plan(const resilience::FaultPlan& plan, int worker,
                     double now_us, const std::string& path_substr = "");

  /// Deterministic injected-event log, one line per fault applied.
  [[nodiscard]] std::vector<std::string> journal() const;
  [[nodiscard]] FaultEnvStats stats() const;

  // ---- Env ----
  Result<std::unique_ptr<WritableFile>> open_append(
      const std::string& path) override;
  Result<std::unique_ptr<WritableFile>> open_trunc(
      const std::string& path) override;
  Result<std::string> read_file(const std::string& path) override;
  Status create_dirs(const std::string& path) override;
  Status rename_file(const std::string& from, const std::string& to) override;
  Status remove_file(const std::string& path) override;
  Status truncate_file(const std::string& path, std::uint64_t size) override;
  Result<std::vector<std::string>> list_dir(const std::string& path) override;
  Result<std::uint64_t> free_bytes(const std::string& path) override;
  bool file_exists(const std::string& path) override;

  // ---- internal (used by the wrapped file handles; not an API) ----

  /// The fault (if any) armed for this call; bumps per-rule call counts.
  struct Decision {
    bool fire = false;
    resilience::FaultKind kind = resilience::FaultKind::kDiskIoError;
    double magnitude = 1.0;
  };
  Decision decide(const std::string& path, IoOp op);
  void record(const std::string& path, IoOp op, resilience::FaultKind kind,
              const std::string& detail);
  /// Flips one seeded-random bit of `data` in place (no-op when empty).
  void flip_bit(std::string& data);
  void note_short_write();
  void note_slow_sync(double extra_us);

 private:
  Env* base_;
  mutable std::mutex mu_;
  Rng rng_;
  std::vector<FaultRule> rules_;
  std::vector<std::uint64_t> rule_calls_;  ///< matching calls seen per rule
  std::vector<std::string> journal_;
  FaultEnvStats stats_;
};

}  // namespace everest::storage
