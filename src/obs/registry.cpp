#include "obs/registry.hpp"

#include <algorithm>
#include <sstream>

namespace everest::obs {
namespace {

template <typename Map, typename Factory>
auto* find_or_create(Map& map, const std::string& key, Factory make) {
  auto it = map.find(key);
  if (it == map.end()) it = map.emplace(key, make()).first;
  return it->second.get();
}

}  // namespace

std::string_view to_string(GaugeKind kind) {
  switch (kind) {
    case GaugeKind::kLastWrite: return "last-write";
    case GaugeKind::kSum: return "sum";
    case GaugeKind::kMax: return "max";
  }
  return "?";
}

void RegistrySnapshot::merge(const RegistrySnapshot& other) {
  at_us = std::max(at_us, other.at_us);
  nodes += other.nodes;
  for (const auto& [key, n] : other.counters) counters[key] += n;
  for (const auto& [key, g] : other.gauges) {
    if (g.kind == GaugeKind::kLastWrite) continue;  // node-local: no rollup
    auto [it, inserted] = gauges.emplace(key, g);
    if (inserted) continue;
    if (it->second.kind == GaugeKind::kSum) {
      it->second.value += g.value;
    } else if (it->second.kind == GaugeKind::kMax) {
      it->second.value = std::max(it->second.value, g.value);
    }
  }
  // A kLastWrite gauge on OUR side must not masquerade as a federation
  // value either: drop it from the merged result.
  for (auto it = gauges.begin(); it != gauges.end();) {
    if (it->second.kind == GaugeKind::kLastWrite) {
      it = gauges.erase(it);
    } else {
      ++it;
    }
  }
  for (const auto& [key, h] : other.histograms) {
    auto it = histograms.find(key);
    if (it == histograms.end()) {
      histograms.emplace(key, h);
    } else {
      (void)it->second.merge(h);  // layout mismatch: keep ours untouched
    }
  }
}

std::string Registry::key_of(const std::string& name, const Labels& labels) {
  if (labels.empty()) return name;
  Labels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  std::string key = name;
  key += '{';
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    if (i > 0) key += ',';
    key += sorted[i].first;
    key += '=';
    key += sorted[i].second;
  }
  key += '}';
  return key;
}

Counter* Registry::counter(const std::string& name, const Labels& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  return find_or_create(counters_, key_of(name, labels),
                        [] { return std::make_unique<Counter>(); });
}

Gauge* Registry::gauge(const std::string& name, const Labels& labels) {
  return gauge(name, GaugeKind::kLastWrite, labels);
}

Gauge* Registry::gauge(const std::string& name, GaugeKind kind,
                       const Labels& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string key = key_of(name, labels);
  gauge_kinds_.emplace(key, kind);  // first registration's kind wins
  return find_or_create(gauges_, key,
                        [] { return std::make_unique<Gauge>(); });
}

Histogram* Registry::histogram(const std::string& name,
                               HistogramOptions options, const Labels& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  return find_or_create(histograms_, key_of(name, labels), [&] {
    return std::make_unique<Histogram>(options);
  });
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [key, c] : counters_) c->reset();
  for (auto& [key, g] : gauges_) g->reset();
  for (auto& [key, h] : histograms_) h->reset();
}

RegistrySnapshot Registry::snapshot(double at_us) const {
  std::lock_guard<std::mutex> lock(mu_);
  RegistrySnapshot snap;
  snap.at_us = at_us;
  for (const auto& [key, c] : counters_) snap.counters[key] = c->value();
  for (const auto& [key, g] : gauges_) {
    RegistrySnapshot::GaugeSample sample;
    sample.value = g->value();
    auto kit = gauge_kinds_.find(key);
    sample.kind = kit == gauge_kinds_.end() ? GaugeKind::kLastWrite
                                            : kit->second;
    snap.gauges[key] = sample;
  }
  for (const auto& [key, h] : histograms_) {
    snap.histograms.emplace(key, h->snapshot());
  }
  return snap;
}

json::Value Registry::to_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  json::Object counters;
  for (const auto& [key, c] : counters_) {
    counters[key] = json::Value(static_cast<std::size_t>(c->value()));
  }
  json::Object gauges;
  for (const auto& [key, g] : gauges_) gauges[key] = json::Value(g->value());
  json::Object histograms;
  for (const auto& [key, h] : histograms_) {
    const HistogramSnapshot s = h->snapshot();
    json::Object entry;
    entry["count"] = json::Value(static_cast<std::size_t>(s.count));
    entry["sum"] = json::Value(s.sum);
    entry["mean"] = json::Value(s.mean());
    entry["p50"] = json::Value(s.percentile(50.0));
    entry["p99"] = json::Value(s.percentile(99.0));
    entry["p999"] = json::Value(s.percentile(99.9));
    entry["max"] = json::Value(s.max_seen);
    histograms[key] = json::Value(std::move(entry));
  }
  json::Object root;
  root["counters"] = json::Value(std::move(counters));
  root["gauges"] = json::Value(std::move(gauges));
  root["histograms"] = json::Value(std::move(histograms));
  return json::Value(std::move(root));
}

std::string Registry::to_text() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  for (const auto& [key, c] : counters_) out << key << ' ' << c->value() << '\n';
  for (const auto& [key, g] : gauges_) out << key << ' ' << g->value() << '\n';
  for (const auto& [key, h] : histograms_) {
    const HistogramSnapshot s = h->snapshot();
    out << key << "_count " << s.count << '\n'
        << key << "_mean " << s.mean() << '\n'
        << key << "_p50 " << s.percentile(50.0) << '\n'
        << key << "_p99 " << s.percentile(99.0) << '\n'
        << key << "_p999 " << s.percentile(99.9) << '\n'
        << key << "_max " << s.max_seen << '\n';
  }
  return out.str();
}

}  // namespace everest::obs
