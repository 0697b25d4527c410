#include "stream/engine.hpp"

#include <algorithm>

namespace everest::stream {

StreamEngine::StreamEngine(EngineConfig config, obs::Registry* registry,
                           storage::Env* env)
    : config_(config),
      registry_(registry),
      env_(env),
      ingestor_(config_.ingest, registry, env) {
  if (registry_ != nullptr) {
    ctr_events_ = registry_->counter("stream.events_processed");
    ctr_outputs_ = registry_->counter("stream.outputs_emitted");
    // kMax: the merged federation value is the worst watermark lag.
    gauge_watermark_lag_ = registry_->gauge("stream.watermark_lag_us",
                                            obs::GaugeKind::kMax);
    hist_staleness_ = registry_->histogram("stream.staleness_us");
  }
}

StreamEngine::~StreamEngine() { stop(); }

Status StreamEngine::add_operator(std::unique_ptr<Operator> op) {
  if (running_.load()) {
    return FailedPrecondition("cannot register operators while running");
  }
  const std::string topic = op->topic();
  ingestor_.topic_id(topic);  // fix the WAL id in registration order
  if (std::find(topics_.begin(), topics_.end(), topic) == topics_.end()) {
    topics_.push_back(topic);
  }
  by_topic_[topic].operators.push_back(operators_.size());
  operators_.push_back(std::move(op));
  return OkStatus();
}

Status StreamEngine::ingest(Event event) { return ingestor_.offer(std::move(event)); }

Result<std::shared_ptr<StreamSession>> StreamEngine::subscribe(
    const std::string& tenant, const std::string& topic,
    SessionConfig config) {
  if (by_topic_.find(topic) == by_topic_.end()) {
    return Status(NotFound("no operator consumes topic '" + topic + "'"));
  }
  std::lock_guard<std::mutex> lock(sessions_mu_);
  if (sessions_.size() >= config_.max_sessions) {
    return Status(ResourceExhausted(
        "session capacity exhausted (" + std::to_string(config_.max_sessions) +
        " live), subscribe rejected"));
  }
  auto session = std::make_shared<StreamSession>(next_session_id_++, tenant,
                                                 topic, config, registry_);
  sessions_[session->id()] = session;
  return session;
}

Status StreamEngine::attach(std::shared_ptr<StreamSession> session) {
  if (by_topic_.find(session->topic()) == by_topic_.end()) {
    return NotFound("no operator consumes topic '" + session->topic() + "'");
  }
  std::lock_guard<std::mutex> lock(sessions_mu_);
  if (sessions_.size() >= config_.max_sessions) {
    return ResourceExhausted("session capacity exhausted, attach rejected");
  }
  const std::uint64_t id = session->id();
  sessions_[id] = std::move(session);
  next_session_id_ = std::max(next_session_id_, id + 1);
  return OkStatus();
}

std::vector<std::shared_ptr<StreamSession>> StreamEngine::detach_all() {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  std::vector<std::shared_ptr<StreamSession>> out;
  out.reserve(sessions_.size());
  for (auto& [id, session] : sessions_) out.push_back(std::move(session));
  sessions_.clear();
  return out;
}

void StreamEngine::start() {
  if (running_.exchange(true)) return;
  stop_requested_.store(false);
  pump_thread_ = std::thread([this] { pump(); });
}

void StreamEngine::stop() {
  if (running_.load()) {
    flush();
    request_stop();
    if (pump_thread_.joinable()) pump_thread_.join();
    running_.store(false);
  }
  std::lock_guard<std::mutex> lock(sessions_mu_);
  for (auto& [id, session] : sessions_) session->close();
}

void StreamEngine::kill() {
  if (!running_.load()) return;
  request_stop();
  if (pump_thread_.joinable()) pump_thread_.join();
  running_.store(false);
}

void StreamEngine::request_stop() {
  {
    // Set under the lock so a flush() between its predicate check and
    // its wait cannot miss the wake-up.
    std::lock_guard<std::mutex> lock(progress_mu_);
    stop_requested_.store(true);
  }
  progress_cv_.notify_all();
  // Not close(): admission stays open, as after a fail-stop the
  // producers still see an accepting queue.
  ingestor_.wake();
}

void StreamEngine::flush() {
  if (!running_.load()) return;
  // Wait until the pump published every event admitted so far (the
  // mutex hand-off makes the folded operator state visible here), or
  // until stop/kill ends the pump for good.
  const std::uint64_t target = ingestor_.stats().admitted;
  {
    std::unique_lock<std::mutex> lock(progress_mu_);
    progress_cv_.wait(lock, [&] {
      return consumed_ >= target || stop_requested_.load();
    });
  }
  ingestor_.sync_wal();
}

void StreamEngine::pump() {
  std::vector<Event> batch;
  while (!stop_requested_.load()) {
    batch.clear();
    ingestor_.take_all(&batch);
    EngineStats delta;
    std::uint64_t consumed = 0;
    for (const Event& event : batch) {
      // kill() stays prompt: the rest of the batch is dropped (the WAL
      // has it), exactly like events still queued.
      if (stop_requested_.load(std::memory_order_relaxed)) break;
      process(event, &delta);
      ++consumed;
    }
    publish(delta, consumed);
  }
}

void StreamEngine::publish(const EngineStats& delta, std::uint64_t consumed) {
  {
    std::lock_guard<std::mutex> lock(progress_mu_);
    consumed_ += consumed;
    stats_.events_processed += delta.events_processed;
    stats_.outputs_emitted += delta.outputs_emitted;
    stats_.deliveries += delta.deliveries;
  }
  progress_cv_.notify_all();
  // Registry instruments are small heap cells that can share a cache line
  // with the producer's counters; written per event, that line would
  // bounce between the two threads, so the pump writes them per batch.
  if (gauge_watermark_lag_ != nullptr) {
    gauge_watermark_lag_->set(static_cast<double>(watermark_lag_us_));
  }
  if (ctr_events_ != nullptr && delta.events_processed > 0) {
    ctr_events_->inc(delta.events_processed);
  }
  if (ctr_outputs_ != nullptr && delta.outputs_emitted > 0) {
    ctr_outputs_->inc(delta.outputs_emitted);
  }
}

void StreamEngine::process(const Event& event, EngineStats* delta) {
  auto it = by_topic_.find(event.topic);
  if (it == by_topic_.end()) return;  // replayed topic nobody consumes now

  std::uint64_t& frontier_max = it->second.frontier;
  frontier_max = std::max(frontier_max, event.event_time_us);
  const std::uint64_t frontier = frontier_max;

  std::vector<WindowOutput> outputs;
  std::uint64_t min_watermark = frontier;
  for (const std::size_t idx : it->second.operators) {
    Operator& op = *operators_[idx];
    if (!event.punctuation) op.offer(event);
    const std::uint64_t lateness = op.allowed_lateness_us();
    const std::uint64_t watermark =
        frontier > lateness ? frontier - lateness : 0;
    op.advance_watermark(watermark, &outputs);
    min_watermark = std::min(min_watermark, op.watermark_us());
  }

  if (!event.punctuation) ++delta->events_processed;
  delta->outputs_emitted += outputs.size();
  watermark_lag_us_ = frontier - min_watermark;
  if (!outputs.empty()) deliver(event.topic, frontier, outputs, delta);
}

void StreamEngine::deliver(const std::string& topic, std::uint64_t frontier,
                           std::vector<WindowOutput>& outputs,
                           EngineStats* delta) {
  std::vector<std::shared_ptr<StreamSession>> targets;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    for (auto& [id, session] : sessions_) {
      if (session->topic() == topic) targets.push_back(session);
    }
  }
  if (targets.empty()) return;
  obs::Tracer* tracer = config_.tracer;
  const bool tracing = tracer != nullptr && tracer->enabled();
  obs::TraceContext ctx;
  double t0 = 0.0;
  if (tracing) {
    // One trace per fan-out: the "deliver" span roots it and each
    // Delivery carries a context parented under it, so consumer-side
    // spans stitch into this chain.
    ctx = obs::TraceContext{tracer->next_id(), tracer->next_id()};
    t0 = tracer->wall_now_us();
  }
  std::uint64_t delivered = 0;
  for (WindowOutput& output : outputs) {
    if (hist_staleness_ != nullptr && frontier > output.window_start_us) {
      // Staleness of the analytic at delivery: age of the oldest data
      // folded into it, on the stream's own timeline.
      hist_staleness_->record(
          static_cast<double>(frontier - output.window_start_us));
    }
    for (const auto& session : targets) {
      session->push(Delivery{output, frontier, ctx});
      ++delivered;
    }
  }
  if (tracing) {
    tracer->span(obs::TimeDomain::kWall, ctx.trace_id, ctx.parent_span, 0, t0,
                 tracer->wall_now_us(), obs::kAutoTrack, "deliver", "stream",
                 {{"topic", topic},
                  {"outputs", std::to_string(outputs.size())},
                  {"sessions", std::to_string(targets.size())}});
  }
  delta->deliveries += delivered;
}

Result<std::uint64_t> StreamEngine::replay_wal(std::uint64_t acked_horizon_us) {
  if (running_.load()) {
    return Status(FailedPrecondition("stop the engine before replay"));
  }
  if (config_.ingest.wal_dir.empty()) {
    return Status(FailedPrecondition("engine has no WAL"));
  }
  // Per-topic max window span: an event older than horizon − span can
  // only fall into windows that closed at or before the horizon.
  std::map<std::string, std::uint64_t> span;
  for (const auto& [topic, state] : by_topic_) {
    std::uint64_t s = 0;
    for (const std::size_t idx : state.operators) {
      s = std::max(s, operators_[idx]->max_window_span_us());
    }
    span[topic] = s;
  }
  std::uint64_t folded = 0;
  EngineStats delta;
  Ingestor::replay(
      config_.ingest.wal_dir, topics(),
      [&](const Event& event) {
        if (acked_horizon_us > 0 && !event.punctuation) {
          auto it = span.find(event.topic);
          const std::uint64_t s = it == span.end() ? 0 : it->second;
          if (event.event_time_us + s <= acked_horizon_us) return;
        }
        process(event, &delta);
        ++folded;
      },
      env_);
  publish(delta, 0);  // replayed events were never admitted here
  return folded;
}

EngineStats StreamEngine::stats() const {
  std::lock_guard<std::mutex> lock(progress_mu_);
  return stats_;
}

std::vector<std::string> StreamEngine::topics() const { return topics_; }

}  // namespace everest::stream
