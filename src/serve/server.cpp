#include "serve/server.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "common/rng.hpp"

namespace everest::serve {

namespace {
double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count() /
         1e3;
}

/// Deterministic shed decision: hash the request seed to uniform
/// permille so same-seed replays shed the same requests.
bool slo_shed_hit(std::uint64_t seed, std::uint32_t permille) {
  if (permille == 0) return false;
  SplitMix64 sm(seed ^ 0x51c0517eda11edULL);
  return sm.next() % 1000 < permille;
}

/// Server::Outcome -> the request span's "outcome" annotation.
constexpr const char* kOutcomeNames[] = {"ok", "degraded", "failed",
                                         "expired", "unavailable"};
}  // namespace

Server::Server(ServerOptions options, runtime::KnowledgeBase* kb)
    : options_(options),
      kb_(kb),
      tuner_(kb),
      breakers_(options.breaker),
      breaker_epoch_(Clock::now()),
      input_cache_(options.input_cache) {
  queue_ = std::make_unique<RequestQueue>(options_.queue_capacity);
  batcher_ = std::make_unique<Batcher>(queue_.get(), options_.batch);
}

double Server::breaker_now_us() const {
  return us_between(breaker_epoch_, Clock::now());
}

data::CacheStats Server::input_cache_stats() const {
  std::lock_guard<std::mutex> lock(input_mu_);
  return input_cache_.stats();
}

void Server::warm_input(const data::ShardKey& key, double bytes) {
  const double cost = options_.input_link.transfer_us(bytes);
  std::lock_guard<std::mutex> lock(input_mu_);
  (void)input_cache_.insert(key, bytes, cost);
}

void Server::clear_input_cache() {
  std::lock_guard<std::mutex> lock(input_mu_);
  input_cache_.clear();
}

double Server::input_cache_resident_bytes() const {
  std::lock_guard<std::mutex> lock(input_mu_);
  return input_cache_.resident_bytes();
}

double Server::stage_batch_inputs(const Batch& batch) {
  // Distinct keys only: requests in one batch reading the same object
  // share one staging (the in-batch form of transfer dedup).
  std::map<std::string, double> keyed;
  for (const PendingRequest& pending : batch.requests) {
    if (!pending.request.data_key.empty()) {
      keyed.emplace(pending.request.data_key, pending.request.input_bytes);
    }
  }
  if (keyed.empty()) return 0.0;
  double stall_us = 0.0;
  std::uint64_t hits = 0, misses = 0;
  /// Cold stagings to report once the lock is dropped (the observer may
  /// do I/O — a WAL append — and must not serialize other workers).
  std::vector<std::pair<data::ShardKey, std::pair<double, double>>> staged;
  {
    std::lock_guard<std::mutex> lock(input_mu_);
    for (const auto& [name, bytes] : keyed) {
      const data::ShardKey key{data::object_id_from_name(name), 0, 0};
      if (input_cache_.lookup(key)) {
        ++hits;
        continue;
      }
      ++misses;
      const double cost = options_.input_link.transfer_us(bytes);
      stall_us += cost;
      if (input_cache_.insert(key, bytes, cost).ok() &&
          options_.on_input_staged) {
        staged.emplace_back(key, std::make_pair(bytes, cost));
      }
    }
  }
  for (const auto& [key, info] : staged) {
    options_.on_input_staged(key, info.first, info.second);
  }
  metrics_.record_input_stage(hits, misses, stall_us);
  return stall_us;
}

Server::~Server() { stop(); }

Status Server::register_endpoint(Endpoint endpoint) {
  if (running_.load()) {
    return FailedPrecondition("cannot register endpoints while serving");
  }
  if (endpoint.kernel.empty() ||
      (!endpoint.handler && !endpoint.variant_handler)) {
    return InvalidArgument("endpoint needs a kernel name and a handler");
  }
  if (endpoints_.count(endpoint.kernel) != 0) {
    return AlreadyExists("endpoint '" + endpoint.kernel +
                         "' already registered");
  }
  EVEREST_RETURN_IF_ERROR(kb_->load(endpoint.variants));
  endpoints_.emplace(endpoint.kernel, std::move(endpoint));
  return OkStatus();
}

Status Server::start() {
  if (running_.exchange(true)) {
    return FailedPrecondition("server already started");
  }
  if (endpoints_.empty()) {
    running_.store(false);
    return FailedPrecondition("no endpoints registered");
  }
  workers_.reserve(options_.worker_threads);
  for (std::size_t i = 0; i < options_.worker_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  EVEREST_LOG(kInfo, "serve") << "server started: " << endpoints_.size()
                              << " endpoints, " << options_.worker_threads
                              << " workers, queue capacity "
                              << options_.queue_capacity;
  return OkStatus();
}

Status Server::submit(Request request, ResponseCallback on_done) {
  if (!running_.load()) {
    return FailedPrecondition("server is not running");
  }
  metrics_.record_submitted();
  if (draining_.load(std::memory_order_acquire)) {
    // Sealed by drain_gracefully(): refuse instead of buffering so the
    // drain condition (finished catches up to admitted) can be reached.
    metrics_.record_unavailable();
    return Unavailable("server is draining");
  }
  if (endpoints_.count(request.kernel) == 0) {
    return NotFound("no endpoint '" + request.kernel + "'");
  }
  // SLO burn-rate shedding: the monitor asked for a fraction of
  // throughput-class traffic to be dropped at the front door so the
  // remaining budget goes to requests that can still meet the SLO.
  if (request.sla == SlaClass::kThroughput &&
      slo_shed_hit(request.seed,
                   slo_shed_permille_.load(std::memory_order_acquire))) {
    metrics_.record_unavailable();
    return Unavailable("slo burn-rate control: shedding throughput load");
  }
  // Degraded mode sheds bulk traffic early: with breakers open (or an
  // SLO page standing) the queue is reserved for latency-critical work
  // once it passes the shed threshold.
  if ((degraded_.load(std::memory_order_acquire) ||
       slo_degraded_.load(std::memory_order_acquire)) &&
      request.sla == SlaClass::kThroughput &&
      static_cast<double>(queue_->size()) >=
          options_.degraded_shed_fill *
              static_cast<double>(options_.queue_capacity)) {
    metrics_.record_unavailable();
    return Unavailable("degraded mode: shedding throughput-class load");
  }
  request.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  request.enqueue_time = Clock::now();
  if (options_.tracer != nullptr && options_.tracer->enabled()) {
    request.span_id = options_.tracer->next_id();
    // A request arriving without propagated identity starts its own
    // trace here; forwarded requests keep the federation's.
    if (!request.trace.valid()) {
      request.trace = obs::TraceContext{options_.tracer->next_id(), 0};
    }
  }
  PendingRequest pending{std::move(request), std::move(on_done)};
  const Status admitted = queue_->push(std::move(pending));
  if (!admitted.ok()) {
    metrics_.record_rejected();
    return admitted;
  }
  metrics_.record_admitted(queue_->size());
  admitted_requests_.fetch_add(1, std::memory_order_acq_rel);
  return OkStatus();
}

void Server::worker_loop() {
  // A worker holds at most one batch: while every worker is busy, requests
  // wait in the admission queue, where capacity rejection, SLA-priority
  // popping, and deadline aging all still apply.
  Batch batch;
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(form_mu_);
      if (!batcher_->next_batch(&batch)) return;
    }
    executing_batches_.fetch_add(1, std::memory_order_relaxed);
    execute_batch(batch);
    executing_batches_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void Server::execute_batch(Batch& batch) {
  const Clock::time_point dispatch_time = Clock::now();
  obs::Tracer* tracer = options_.tracer;

  // SLA enforcement: answers after the deadline are worthless, so expired
  // requests are dropped here instead of burning handler time. Live
  // requests are compacted to the front in order.
  std::size_t live = 0;
  for (std::size_t i = 0; i < batch.requests.size(); ++i) {
    PendingRequest& pending = batch.requests[i];
    if (dispatch_time <= pending.request.deadline) {
      if (i != live) batch.requests[live] = std::move(pending);
      ++live;
      continue;
    }
    const std::string queued = std::to_string(static_cast<long>(
        us_between(pending.request.enqueue_time, dispatch_time)));
    reply(pending,
          {.status = DeadlineExceeded(
               "request expired before dispatch (queued " + queued + " us)")},
          Outcome::kExpired, dispatch_time, dispatch_time);
  }
  batch.requests.resize(live);
  if (batch.requests.empty()) return;

  // Stage request inputs through the input cache before compute: warm
  // keys are free, cold keys stall the batch for their transfer time.
  const double stage_stall_us = stage_batch_inputs(batch);
  if (stage_stall_us > 0.0 && options_.input_stage_scale > 0.0) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(static_cast<std::int64_t>(
            stage_stall_us * options_.input_stage_scale)));
  }

  // Variant selection for the whole batch under the live system state
  // (shared knowledge base; its internal mutex makes this reentrant).
  runtime::SystemState state;
  state.fpgas_available = options_.fpgas_available;
  // Batches executing, this one included; backlog waiting for a worker,
  // capped at one batch per worker (the range the signal had when batches
  // queued for a pool).
  state.fpga_queue_depth = static_cast<double>(
      executing_batches_.load(std::memory_order_relaxed));
  const std::size_t workers = options_.worker_threads;
  state.cpu_load =
      std::min(0.95, static_cast<double>(std::min(queue_->size(), workers)) /
                         static_cast<double>(workers + 1));
  double scale = 0.0;
  for (const PendingRequest& pending : batch.requests) {
    scale += pending.request.payload_scale;
  }
  state.data_scale = scale / static_cast<double>(batch.size());

  runtime::Goal goal = options_.goal;
  // SLO-degraded: latency is the burning budget, so every batch (not
  // just latency-critical ones) is tuned for min latency until the
  // monitor clears the page.
  if (slo_degraded_.load(std::memory_order_acquire)) {
    goal.objective = runtime::Goal::Objective::kMinLatency;
  }
  if (batch.sla == SlaClass::kLatencyCritical) {
    goal.objective = runtime::Goal::Objective::kMinLatency;
    // Tightest remaining deadline in the batch becomes the constraint.
    double tightest_us = goal.latency_deadline_us;
    for (const PendingRequest& pending : batch.requests) {
      if (pending.request.deadline != Clock::time_point::max()) {
        tightest_us = std::min(
            tightest_us, us_between(dispatch_time, pending.request.deadline));
      }
    }
    goal.latency_deadline_us = std::max(1.0, tightest_us);
  }
  if (options_.enable_breaker) {
    state.variant_gate = [this, &batch](const compiler::Variant& v) {
      return breakers_.allow(batch.kernel, v.id, breaker_now_us());
    };
  }
  std::string variant_id;
  auto selection = tuner_.select(batch.kernel, goal, state);
  if (selection.ok()) variant_id = selection->variant.id;

  if (!selection.ok() && selection.status().code() == StatusCode::kUnavailable) {
    // Every variant of the kernel is withheld by an open breaker: answer
    // UNAVAILABLE without burning handler time (the caller may retry
    // after the cooldown lets a probe through).
    const Clock::time_point now = Clock::now();
    for (const PendingRequest& pending : batch.requests) {
      reply(pending,
            {.status = selection.status(), .batch_size = batch.size()},
            Outcome::kUnavailable, dispatch_time, now);
    }
    return;
  }

  // Execute the endpoint handler (the real work) and time it. The fault
  // injector may veto the execution first, simulating a variant failure
  // (dead FPGA slot, failed reconfiguration) that feeds the breaker.
  const Endpoint& endpoint = endpoints_.at(batch.kernel);
  std::vector<double> values;
  Status handler_status = OkStatus();
  bool fault_injected = false;
  if (selection.ok() && options_.fault_injector) {
    handler_status = options_.fault_injector(batch, selection->variant);
    fault_injected = !handler_status.ok();
  }
  Execution execution;
  execution.start = Clock::now();
  if (handler_status.ok()) {
    if (endpoint.variant_handler) {
      handler_status = endpoint.variant_handler(
          batch, selection.ok() ? &selection->variant : nullptr, &values);
    } else {
      handler_status = endpoint.handler(batch, &values);
    }
  }
  execution.end = Clock::now();
  const double service_us = us_between(execution.start, execution.end);

  // Data-feature export (the JIT detector's input signal): per-request
  // shape/tenant tuples with each request's share of the batch's handler
  // time — hot (kernel, feature, tenant) tuples and their measured cost
  // become registry facts the detector can mine.
  {
    const double share_us = service_us / static_cast<double>(batch.size());
    for (const PendingRequest& pending : batch.requests) {
      metrics_.record_feature(batch.kernel, pending.request.tenant,
                              pending.request.payload_scale, share_us);
    }
  }
  if (handler_status.ok() && values.size() != batch.size()) {
    handler_status = Internal("endpoint '" + batch.kernel + "' returned " +
                              std::to_string(values.size()) + " values for " +
                              std::to_string(batch.size()) + " requests");
  }
  metrics_.record_batch(batch.size(), service_us);
  if (tracer != nullptr && tracer->enabled()) {
    if (fault_injected) {
      // Injected variant failure: surface it on the timeline next to the
      // batch it poisoned.
      tracer->instant(obs::TimeDomain::kWall,
                      batch.requests.front().request.trace.trace_id,
                      tracer->wall_us(execution.start), obs::kAutoTrack,
                      "fault-injected", "resilience",
                      {{"kernel", batch.kernel}, {"variant", variant_id}});
    }
    execution.annotations = {{"variant", variant_id},
                             {"batch_size", std::to_string(batch.size())}};
    if (selection.ok()) {
      // The autotuner's decision, attached where it took effect.
      execution.annotations.emplace_back(
          "predicted_latency_us",
          std::to_string(selection->predicted_latency_us));
      execution.annotations.emplace_back(
          "constraints_met", selection->constraints_met ? "1" : "0");
    }
  }

  bool batch_degraded = false;
  if (options_.enable_breaker && selection.ok()) {
    breakers_.record(batch.kernel, selection->variant.id,
                     handler_status.ok(), breaker_now_us());
    batch_degraded =
        handler_status.ok() && breakers_.open_count(batch.kernel) > 0;
    degraded_.store(breakers_.open_count() > 0, std::memory_order_release);
  }

  // Close the Fig. 2 loop: feed the measured per-request cost back so the
  // next selection sees calibrated expectations.
  if (!variant_id.empty() && handler_status.ok()) {
    const double per_request_us =
        service_us / static_cast<double>(batch.size());
    tuner_.observe(batch.kernel, variant_id, per_request_us,
                   selection->predicted_energy_uj);
  }

  const Outcome outcome = !handler_status.ok() ? Outcome::kFailed
                          : batch_degraded     ? Outcome::kDegraded
                                               : Outcome::kOk;
  const Clock::time_point done = Clock::now();
  Response response{.status = handler_status,
                    .service_us = service_us,
                    .batch_size = batch.size(),
                    .variant_id = variant_id,
                    .degraded = batch_degraded};
  for (std::size_t i = 0; i < batch.requests.size(); ++i) {
    response.value = handler_status.ok() ? values[i] : 0.0;
    reply(batch.requests[i], response, outcome, dispatch_time, done,
          &execution);
  }
}

void Server::reply(const PendingRequest& pending, Response response,
                   Outcome outcome, Clock::time_point dispatch_time,
                   Clock::time_point end, const Execution* execution) {
  const Request& request = pending.request;
  response.id = request.id;
  response.latency_us = us_between(request.enqueue_time, end);
  switch (outcome) {
    case Outcome::kDegraded: metrics_.record_degraded(); [[fallthrough]];
    case Outcome::kOk:
      metrics_.record_completion(request.sla, response.latency_us);
      break;
    case Outcome::kFailed: metrics_.record_failed(); break;
    case Outcome::kExpired: metrics_.record_expired(); break;
    case Outcome::kUnavailable: metrics_.record_unavailable(); break;
  }
  const char* outcome_name = kOutcomeNames[static_cast<int>(outcome)];

  obs::Tracer* tracer = options_.tracer;
  if (tracer != nullptr && tracer->enabled() && request.span_id != 0) {
    const std::uint64_t trace_id = request.trace.trace_id;
    const std::uint64_t root = request.span_id;
    const double t_enq = tracer->wall_us(request.enqueue_time);
    const double t_disp = tracer->wall_us(dispatch_time);
    const double t_end = tracer->wall_us(end);
    tracer->span(obs::TimeDomain::kWall, trace_id, tracer->next_id(), root,
                 t_enq, t_disp, obs::kAutoTrack, "queue", "serve");
    if (execution != nullptr) {
      const double t_exec0 = tracer->wall_us(execution->start);
      const double t_exec1 = tracer->wall_us(execution->end);
      // Batch formation + input staging + variant selection window.
      tracer->span(obs::TimeDomain::kWall, trace_id, tracer->next_id(), root,
                   t_disp, t_exec0, obs::kAutoTrack, "batch", "serve",
                   {{"batch_size", std::to_string(response.batch_size)}});
      tracer->span(obs::TimeDomain::kWall, trace_id, tracer->next_id(), root,
                   t_exec0, t_exec1, obs::kAutoTrack, "execute", "serve",
                   execution->annotations);
      tracer->span(obs::TimeDomain::kWall, trace_id, tracer->next_id(), root,
                   t_exec1, t_end, obs::kAutoTrack, "reply", "serve");
    }
    if (outcome == Outcome::kExpired || outcome == Outcome::kUnavailable) {
      tracer->instant(obs::TimeDomain::kWall, trace_id, t_end,
                      obs::kAutoTrack, outcome_name, "serve");
    }
    tracer->span(obs::TimeDomain::kWall, trace_id, root,
                 request.trace.parent_span, t_enq, t_end, obs::kAutoTrack,
                 "request", "serve",
                 {{"outcome", outcome_name},
                  {"sla", request.sla == SlaClass::kLatencyCritical ? "lc"
                                                                    : "tp"}});
  }

  if (pending.on_done) pending.on_done(response);
  {
    std::lock_guard<std::mutex> lock(progress_mu_);
    finished_requests_.fetch_add(1, std::memory_order_acq_rel);
  }
  progress_cv_.notify_all();
}

void Server::wait_drained() {
  // Re-reads admitted on every wake: a submit that passed the running and
  // draining checks just before a seal may still be incrementing it.
  std::unique_lock<std::mutex> lock(progress_mu_);
  progress_cv_.wait(lock, [this] {
    return finished_requests_.load(std::memory_order_acquire) >=
           admitted_requests_.load(std::memory_order_acquire);
  });
}

void Server::drain() {
  if (running_.load()) wait_drained();
}

std::uint64_t Server::drain_gracefully() {
  if (!running_.load()) return 0;
  draining_.store(true, std::memory_order_release);
  const std::uint64_t finished_at_seal =
      finished_requests_.load(std::memory_order_acquire);
  wait_drained();
  const std::uint64_t drained =
      finished_requests_.load(std::memory_order_acquire) - finished_at_seal;
  EVEREST_LOG(kInfo, "serve")
      << "drained " << drained << " in-flight request(s)";
  return drained;
}

void Server::resume_admission() {
  draining_.store(false, std::memory_order_release);
}

void Server::stop() {
  if (!running_.exchange(false)) return;
  // Let admitted work finish, then close the queue: the worker blocked in
  // batch formation wakes to an empty closed queue and exits, and so does
  // each worker that takes form_mu_ after it.
  wait_drained();
  queue_->close();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
  EVEREST_LOG(kInfo, "serve") << "server stopped";
}

}  // namespace everest::serve
