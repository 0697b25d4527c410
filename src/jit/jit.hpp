// JitService — the whole compile↔serve loop under one roof (DESIGN.md
// row 20): detector (mines the serving registry's data-feature export)
// → compilation service (budgeted, breaker-guarded specialization on a
// background thread) → variant cache (versioned publish, hot-swapped
// into the KnowledgeBase) → persistence (warm restart without DSE).
//
// Two driving modes:
//   * tick(now_us) — one synchronous scan+compile step on an explicit
//     clock. What tests and the E26 bench call: fully deterministic.
//   * start()/stop() — a background thread calling tick() every
//     scan_period_us on the steady clock. The thread is deliberately a
//     single low-duty worker (it sleeps between scans and the compile
//     budget caps its work rate), so serving latency is insulated from
//     compilation by construction, not by OS priorities.
#pragma once

#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "jit/cache.hpp"
#include "jit/detector.hpp"
#include "jit/service.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "runtime/knowledge.hpp"
#include "storage/env.hpp"

namespace everest::jit {

/// Drops the calling thread to idle scheduling priority (SCHED_IDLE on
/// Linux; no-op elsewhere): background compilation should only ever run
/// on cycles serving is not using. Called by the JitService worker; any
/// caller driving compile_now/run_pending from its own thread should
/// call it too.
void set_background_thread_priority();

struct JitConfig {
  DetectorConfig detector;
  ServiceConfig service;
  CacheConfig cache;
  /// Background-thread scan cadence.
  double scan_period_us = 250'000.0;
  /// Persisted cache file ("" disables persistence / warm restart).
  std::string cache_path;
};

class JitService {
 public:
  /// `kb` is hot-swapped by publishes; `serving_registry` is scanned for
  /// serve.feature.* series. `jit_registry`, `tracer`, and `env` are
  /// optional (no metrics / no spans / no persistence).
  JitService(runtime::KnowledgeBase* kb, const obs::Registry* serving_registry,
             obs::Registry* jit_registry = nullptr,
             obs::Tracer* tracer = nullptr, storage::Env* env = nullptr,
             JitConfig config = {});
  ~JitService();
  JitService(const JitService&) = delete;
  JitService& operator=(const JitService&) = delete;

  void register_kernel(KernelSpec spec) {
    service_.register_kernel(std::move(spec));
  }

  /// Loads the persisted cache and republishes its variants into the
  /// KnowledgeBase — the specialized-variant hit rate is back before a
  /// single compile runs. Cold start (no file) restores 0 entries.
  Result<std::size_t> warm_restart();

  /// Saves the cache for the next process (atomic replace).
  Status persist() const;

  /// One synchronous detect→compile→publish step on the caller's clock.
  /// Returns the number of variants sets published this tick.
  std::size_t tick(double now_us);

  /// Starts/stops the background scan thread (idempotent). stop() also
  /// persists when a cache path is configured.
  void start();
  void stop();

  [[nodiscard]] VariantCache& cache() { return cache_; }
  [[nodiscard]] CompilationService& service() { return service_; }
  [[nodiscard]] HotTupleDetector& detector() { return detector_; }

 private:
  void run_loop();

  const obs::Registry* serving_registry_;
  obs::Tracer* tracer_;
  storage::Env* env_;
  JitConfig config_;

  VariantCache cache_;
  CompilationService service_;
  HotTupleDetector detector_;

  /// The scan thread waits on wake_ between ticks; stop() clears
  /// running_ under wake_mu_ and notifies, so it returns at once.
  std::mutex wake_mu_;
  std::condition_variable wake_;
  bool running_ = false;
  std::thread worker_;
};

}  // namespace everest::jit
