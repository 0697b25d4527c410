#include "jit/service.hpp"

#include <algorithm>
#include <chrono>

namespace everest::jit {

namespace {
constexpr const char* kBreakerScope = "jit";

double steady_us() {
  return std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

CompilationService::CompilationService(VariantCache* cache,
                                       obs::Registry* registry,
                                       obs::Tracer* tracer,
                                       ServiceConfig config)
    : cache_(cache),
      registry_(registry),
      tracer_(tracer),
      config_(config),
      budget_(config.budget),
      breakers_(config.breaker) {}

void CompilationService::register_kernel(KernelSpec spec) {
  std::lock_guard<std::mutex> lock(mu_);
  specs_[spec.kernel] = std::move(spec);
}

std::size_t CompilationService::enqueue(
    const std::vector<HotCandidate>& candidates) {
  std::size_t admitted = 0;
  std::uint64_t dropped = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const HotCandidate& c : candidates) {
      if (cache_->lookup(c.tuple).has_value()) {
        ++stats_.dropped_covered;
        continue;
      }
      const bool queued =
          std::any_of(queue_.begin(), queue_.end(), [&](const HotCandidate& q) {
            return q.tuple == c.tuple;
          });
      if (queued) continue;
      queue_.push_back(c);
      ++stats_.enqueued;
      ++admitted;
    }
    // Best priority last (cheap pop_back pump); overflow drops the front
    // = lowest priority (drop-and-account: the detector will re-surface
    // a still-hot tuple on a later scan).
    std::sort(queue_.begin(), queue_.end(),
              [](const HotCandidate& a, const HotCandidate& b) {
                if (a.priority != b.priority) return a.priority < b.priority;
                return b.tuple < a.tuple;
              });
    while (queue_.size() > config_.queue_capacity) {
      queue_.erase(queue_.begin());
      ++stats_.dropped_full;
      ++dropped;
    }
  }
  if (registry_ != nullptr) {
    if (dropped > 0) registry_->counter("jit.queue.dropped")->inc(dropped);
    registry_->gauge("jit.queue.depth", obs::GaugeKind::kLastWrite)
        ->set(static_cast<double>(queue_depth()));
  }
  return admitted;
}

std::size_t CompilationService::run_pending(double now_us) {
  std::size_t compiled = 0;
  for (;;) {
    HotCandidate next;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (queue_.empty()) break;
      next = queue_.back();
      queue_.pop_back();
    }
    // Re-check coverage: another pump (or a warm restart) may have
    // published this tuple while it sat in the queue.
    if (cache_->lookup(next.tuple).has_value()) {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.dropped_covered;
      continue;
    }
    Result<std::uint32_t> r = compile_tuple(next.tuple, now_us);
    if (r.ok()) {
      ++compiled;
      continue;
    }
    if (r.status().code() == StatusCode::kResourceExhausted) {
      // Budget empty: put the candidate back and stop the pump — the
      // bucket refills with wall time, the tuple stays pending.
      std::lock_guard<std::mutex> lock(mu_);
      queue_.insert(queue_.begin(), std::move(next));
      break;
    }
    // Breaker-open or compile failure: drop (accounted in compile_tuple).
  }
  if (registry_ != nullptr) {
    registry_->gauge("jit.queue.depth", obs::GaugeKind::kLastWrite)
        ->set(static_cast<double>(queue_depth()));
  }
  return compiled;
}

Result<std::uint32_t> CompilationService::compile_now(const HotTuple& tuple,
                                                      double now_us) {
  return compile_tuple(tuple, now_us);
}

Result<std::uint32_t> CompilationService::compile_tuple(const HotTuple& tuple,
                                                        double now_us) {
  if (!breakers_.allow(kBreakerScope, tuple.key(), now_us)) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.dropped_breaker;
    return Unavailable("compile breaker open for tuple " + tuple.key());
  }
  if (!budget_.try_acquire(config_.estimated_compile_us, now_us)) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.budget_denied;
    }
    if (registry_ != nullptr) registry_->counter("jit.budget.denied")->inc();
    return ResourceExhausted("compile budget exhausted");
  }

  KernelSpec spec;
  std::uint64_t seed = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = specs_.find(tuple.kernel);
    if (it == specs_.end()) {
      ++stats_.compiles_failed;
      budget_.settle(config_.estimated_compile_us, 0.0, now_us);
      breakers_.record(kBreakerScope, tuple.key(), false, now_us);
      return NotFound("no KernelSpec registered for kernel '" + tuple.kernel +
                      "'");
    }
    spec = it->second;
    seed = config_.seed;
  }

  SpecializeRequest request;
  request.tuple = tuple;
  request.seed = seed;
  // Version = current cache entry + 1, so a re-mint's ids never collide
  // with the set it retires.
  const auto current = cache_->lookup(tuple);
  request.version = current.has_value() ? current->version + 1 : 1;

  obs::Tracer::ScopedSpan compile_span;
  if (tracer_ != nullptr) {
    compile_span = tracer_->scoped("jit.compile", "jit");
    compile_span.annotate("tuple", tuple.key());
    compile_span.annotate("version", std::to_string(request.version));
  }

  const double t0 = steady_us();
  Result<MintedVariants> minted = specialize(spec, request);
  Result<std::uint32_t> published =
      minted.ok() ? cache_->publish(tuple, *minted, seed)
                  : Result<std::uint32_t>(minted.status());
  const double actual_us = std::max(0.0, steady_us() - t0);
  budget_.settle(config_.estimated_compile_us, actual_us, now_us);

  const bool ok = published.ok();
  breakers_.record(kBreakerScope, tuple.key(), ok, now_us);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (ok) {
      ++stats_.compiles_ok;
    } else {
      ++stats_.compiles_failed;
    }
    stats_.compile_us_total += actual_us;
  }
  if (registry_ != nullptr) {
    registry_->histogram("jit.compile_us")->record(actual_us);
    registry_->counter(ok ? "jit.compile.ok" : "jit.compile.failed")->inc();
  }
  if (compile_span.active()) {
    compile_span.annotate("ok", ok ? "true" : "false");
    if (minted.ok()) {
      compile_span.annotate("dse_points", std::to_string(minted->dse_points));
      compile_span.annotate("minted",
                            std::to_string(minted->variants.size()));
    }
  }
  return published;
}

std::size_t CompilationService::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

ServiceStats CompilationService::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace everest::jit
