#include "jit/jit.hpp"

#include <chrono>
#include <utility>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace everest::jit {

void set_background_thread_priority() {
#if defined(__linux__)
  // SCHED_IDLE: the kernel runs this thread only when nothing else is
  // runnable and preempts it the instant a serving thread wakes. This is
  // what insulates tail latency from a compile slice on few-core nodes —
  // the budget caps how much compile work runs, the priority decides
  // when it runs.
  sched_param param{};
  (void)pthread_setschedparam(pthread_self(), SCHED_IDLE, &param);
#endif
}

namespace {
double steady_us() {
  return std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

JitService::JitService(runtime::KnowledgeBase* kb,
                       const obs::Registry* serving_registry,
                       obs::Registry* jit_registry, obs::Tracer* tracer,
                       storage::Env* env, JitConfig config)
    : serving_registry_(serving_registry),
      tracer_(tracer),
      env_(env),
      config_(std::move(config)),
      cache_(kb, jit_registry, config_.cache),
      service_(&cache_, jit_registry, tracer, config_.service),
      detector_(kb, jit_registry, config_.detector) {}

JitService::~JitService() { stop(); }

Result<std::size_t> JitService::warm_restart() {
  if (env_ == nullptr || config_.cache_path.empty()) {
    return std::size_t{0};
  }
  auto restored = cache_.load(env_, config_.cache_path);
  if (!restored.ok() && restored.status().code() == StatusCode::kNotFound) {
    return std::size_t{0};  // cold start
  }
  return restored;
}

Status JitService::persist() const {
  if (env_ == nullptr || config_.cache_path.empty()) return OkStatus();
  return cache_.save(env_, config_.cache_path);
}

std::size_t JitService::tick(double now_us) {
  obs::Tracer::ScopedSpan scan_span;
  if (tracer_ != nullptr) scan_span = tracer_->scoped("jit.detect", "jit");
  std::vector<HotCandidate> candidates =
      detector_.scan(serving_registry_->snapshot(now_us));
  if (scan_span.active()) {
    scan_span.annotate("candidates", std::to_string(candidates.size()));
  }
  service_.enqueue(candidates);
  return service_.run_pending(now_us);
}

void JitService::start() {
  std::lock_guard<std::mutex> lock(wake_mu_);
  if (running_) return;
  running_ = true;
  worker_ = std::thread([this] { run_loop(); });
}

void JitService::stop() {
  bool was_running = false;
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    was_running = std::exchange(running_, false);
  }
  wake_.notify_all();
  if (was_running && worker_.joinable()) worker_.join();
  if (env_ != nullptr && !config_.cache_path.empty()) {
    persist();  // best effort; callers needing the Status call persist()
  }
}

void JitService::run_loop() {
  set_background_thread_priority();
  const auto period = std::chrono::microseconds(
      static_cast<std::int64_t>(config_.scan_period_us));
  std::unique_lock<std::mutex> lock(wake_mu_);
  while (running_) {
    lock.unlock();
    const auto next_tick = std::chrono::steady_clock::now() + period;
    tick(steady_us());
    lock.lock();
    wake_.wait_until(lock, next_tick, [this] { return !running_; });
  }
}

}  // namespace everest::jit
