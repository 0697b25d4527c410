// CompilationService — the JIT's work engine. Pulls ranked hot-tuple
// candidates from the detector into a bounded priority queue
// (drop-and-account, never block), and pumps them through the
// specialization pipeline under two safety valves:
//
//   * a CompileBudget token bucket (compile-us per wall-second): when
//     tokens run out the pump simply stops — pending candidates wait for
//     the refill, so background compilation can never starve serving;
//   * a per-tuple circuit breaker: a tuple whose compiles keep failing is
//     dropped instead of retried forever, and serving degrades to the
//     generic variants it already had (no failure is ever user-visible).
//
// The pump is deliberately synchronous (run_pending on the caller's
// clock) so tests and the E26 bench drive it deterministically; the
// JitService facade adds the background thread for production use.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "jit/budget.hpp"
#include "jit/cache.hpp"
#include "jit/specialize.hpp"
#include "jit/tuple.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "resilience/circuit_breaker.hpp"

namespace everest::jit {

struct ServiceConfig {
  /// Bounded candidate queue; overflow drops the lowest-priority entry.
  std::size_t queue_capacity = 16;
  /// Budget charge per compile, reconciled against the measured time.
  double estimated_compile_us = 5'000.0;
  BudgetConfig budget;
  resilience::BreakerPolicy breaker;
  /// DSE seed baked into every SpecializeRequest (determinism contract).
  std::uint64_t seed = 42;
};

struct ServiceStats {
  std::uint64_t enqueued = 0;
  std::uint64_t dropped_full = 0;     ///< queue overflow (lowest priority)
  std::uint64_t dropped_covered = 0;  ///< already specialized, skipped
  std::uint64_t dropped_breaker = 0;  ///< per-tuple breaker open
  std::uint64_t budget_denied = 0;    ///< pump stopped on empty bucket
  std::uint64_t compiles_ok = 0;
  std::uint64_t compiles_failed = 0;
  double compile_us_total = 0.0;  ///< measured specialize+publish time
};

class CompilationService {
 public:
  /// `cache` is the publish target (which owns the KnowledgeBase swap).
  /// `registry` receives jit.compile_us / jit.queue.* instruments;
  /// `tracer` the compile→publish spans. Both optional.
  explicit CompilationService(VariantCache* cache,
                              obs::Registry* registry = nullptr,
                              obs::Tracer* tracer = nullptr,
                              ServiceConfig config = {});

  /// Registers the kernel spec the specializer compiles against.
  /// Candidates for unregistered kernels are dropped (counted failed).
  void register_kernel(KernelSpec spec);

  /// Admits detector candidates into the queue. Tuples already covered
  /// by the cache or already queued are skipped; over capacity the
  /// lowest-priority entry is dropped-and-accounted. Returns how many
  /// were admitted.
  std::size_t enqueue(const std::vector<HotCandidate>& candidates);

  /// Compiles queued candidates (best priority first) until the queue or
  /// the compile budget is exhausted. `now_us` is the budget/breaker
  /// clock (wall or simulated). Returns successful compiles.
  std::size_t run_pending(double now_us);

  /// Compiles one tuple immediately, bypassing queue and coverage check
  /// (still budget- and breaker-gated): the re-specialization path, and
  /// the test hook. Publishes on success.
  Result<std::uint32_t> compile_now(const HotTuple& tuple, double now_us);

  [[nodiscard]] std::size_t queue_depth() const;
  [[nodiscard]] ServiceStats stats() const;
  [[nodiscard]] BudgetStats budget_stats() const { return budget_.stats(); }
  [[nodiscard]] double budget_available_us(double now_us) {
    return budget_.available_us(now_us);
  }
  [[nodiscard]] const resilience::CircuitBreakerBoard& breakers() const {
    return breakers_;
  }

 private:
  /// Budget+breaker gated compile of one tuple; assumes coverage/dedup
  /// already decided. Does NOT hold mu_ while compiling.
  Result<std::uint32_t> compile_tuple(const HotTuple& tuple, double now_us);

  VariantCache* cache_;
  obs::Registry* registry_;
  obs::Tracer* tracer_;
  ServiceConfig config_;
  CompileBudget budget_;
  resilience::CircuitBreakerBoard breakers_;

  mutable std::mutex mu_;
  std::map<std::string, KernelSpec> specs_;
  std::vector<HotCandidate> queue_;  ///< kept sorted, best priority last
  ServiceStats stats_;
};

}  // namespace everest::jit
