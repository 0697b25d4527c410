#include "stream/federated.hpp"

#include <algorithm>

namespace everest::stream {

StreamFabric::StreamFabric(FabricConfig config, cluster::Federation* federation,
                           obs::Registry* registry, storage::Env* env)
    : config_(std::move(config)),
      federation_(federation),
      registry_(registry),
      env_(env) {
  if (federation_ != nullptr) config_.num_nodes = federation_->num_nodes();
}

StreamFabric::~StreamFabric() { stop(); }

std::vector<std::size_t> StreamFabric::candidates(
    const std::string& topic) const {
  const std::uint32_t shard = cluster::ShardMap::shard_of(
      topic, config_.shard_map.num_shards, config_.shard_map.salt);
  std::vector<std::size_t> order;
  if (federation_ != nullptr) {
    const auto table = federation_->shard_table();
    if (shard < table->replicas.size()) order = table->replicas[shard];
  }
  // Standalone (or table gap): rotate the node ring from the shard.
  for (std::size_t i = 0; i < config_.num_nodes; ++i) {
    const std::size_t node = (shard + i) % config_.num_nodes;
    if (std::find(order.begin(), order.end(), node) == order.end()) {
      order.push_back(node);
    }
  }
  std::vector<std::size_t> live;
  for (const std::size_t node : order) {
    if (!node_crashed(node)) live.push_back(node);
  }
  return live;
}

bool StreamFabric::node_crashed(std::size_t node) const {
  if (federation_ != nullptr && federation_->crashed(node)) return true;
  return crashed_.count(node) != 0;
}

std::unique_ptr<StreamEngine> StreamFabric::build_engine(
    const std::string& topic, const OperatorFactory& factory) const {
  EngineConfig engine_config = config_.engine;
  engine_config.ingest.wal_dir =
      config_.wal_root.empty() ? "" : config_.wal_root + "/" + topic;
  auto engine =
      std::make_unique<StreamEngine>(engine_config, registry_, env_);
  engine->add_operator(factory());
  return engine;
}

Status StreamFabric::register_topic(const std::string& topic,
                                    OperatorFactory factory) {
  if (started_) {
    return FailedPrecondition("register topics before start()");
  }
  if (topics_.count(topic) != 0) {
    return AlreadyExists("topic '" + topic + "' already registered");
  }
  const std::vector<std::size_t> order = candidates(topic);
  if (order.empty()) return Unavailable("no live node to home '" + topic + "'");
  Topic entry;
  entry.home = order.front();
  entry.engine = build_engine(topic, factory);
  entry.factory = std::move(factory);
  topics_[topic] = std::move(entry);
  return OkStatus();
}

void StreamFabric::start() {
  for (auto& [name, topic] : topics_) {
    if (!node_crashed(topic.home)) topic.engine->start();
  }
  started_ = true;
}

void StreamFabric::stop() {
  for (auto& [name, topic] : topics_) topic.engine->stop();
  started_ = false;
}

Result<std::size_t> StreamFabric::home_of(const std::string& topic) const {
  auto it = topics_.find(topic);
  if (it == topics_.end()) {
    return Status(NotFound("unknown topic '" + topic + "'"));
  }
  return it->second.home;
}

Status StreamFabric::ingest(Event event) {
  auto it = topics_.find(event.topic);
  if (it == topics_.end()) {
    return NotFound("unknown topic '" + event.topic + "'");
  }
  if (node_crashed(it->second.home)) {
    return Unavailable("home node " + std::to_string(it->second.home) +
                       " of '" + event.topic +
                       "' is down; failover pending");
  }
  return it->second.engine->ingest(std::move(event));
}

Result<std::shared_ptr<StreamSession>> StreamFabric::subscribe(
    const std::string& tenant, const std::string& topic,
    SessionConfig config) {
  auto it = topics_.find(topic);
  if (it == topics_.end()) {
    return Status(NotFound("unknown topic '" + topic + "'"));
  }
  return it->second.engine->subscribe(tenant, topic, config);
}

void StreamFabric::crash(std::size_t node) { crashed_.insert(node); }

std::vector<std::string> StreamFabric::handle_failover() {
  std::vector<std::string> moved;
  for (auto& [name, topic] : topics_) {
    if (!node_crashed(topic.home)) continue;
    const std::vector<std::size_t> order = candidates(name);
    if (order.empty()) continue;  // whole cluster down; nothing to do

    // 1. fail-stop the dead home's engine; 2. salvage its sessions.
    topic.engine->kill();
    std::vector<std::shared_ptr<StreamSession>> sessions =
        topic.engine->detach_all();

    // Replay horizon: nothing below the minimum acked watermark needs
    // re-delivery (sessions suppress those windows anyway; the trim
    // just skips events that could only rebuild acked windows).
    std::uint64_t horizon = UINT64_MAX;
    for (const auto& session : sessions) {
      horizon = std::min(horizon, session->acked_watermark_us());
    }
    if (sessions.empty() || horizon == UINT64_MAX) horizon = 0;

    // 3-5. fresh engine on the new home over the same WAL, re-attach,
    // replay, resume.
    topic.home = order.front();
    topic.engine = build_engine(name, topic.factory);
    for (auto& session : sessions) {
      topic.engine->attach(std::move(session));
      ++stats_.sessions_moved;
    }
    auto replayed = topic.engine->replay_wal(horizon);
    if (replayed.ok()) stats_.replayed_events += replayed.value();
    if (started_) topic.engine->start();
    ++stats_.failovers;
    moved.push_back(name);
  }
  return moved;
}

void StreamFabric::flush() {
  for (auto& [name, topic] : topics_) {
    if (!node_crashed(topic.home)) topic.engine->flush();
  }
}

}  // namespace everest::stream
