#include "runtime/knowledge.hpp"

#include "common/json.hpp"

namespace everest::runtime {

namespace {
/// The shared "no variants" snapshot unknown kernels answer with.
const VariantSet& empty_set() {
  static const VariantSet kEmpty =
      std::make_shared<const std::vector<compiler::Variant>>();
  return kEmpty;
}
}  // namespace

KnowledgeBase::KnowledgeBase(const KnowledgeBase& other) {
  std::lock_guard<std::mutex> lock(other.mu_);
  variants_ = other.variants_;
  epochs_ = other.epochs_;
  observations_ = other.observations_;
}

Status KnowledgeBase::load(const std::vector<compiler::Variant>& variants) {
  std::lock_guard<std::mutex> lock(mu_);
  // Validate against both the stored sets and the batch itself before
  // mutating anything, so a rejected load leaves the store untouched.
  for (std::size_t i = 0; i < variants.size(); ++i) {
    const compiler::Variant& v = variants[i];
    const VariantSet& current = [&]() -> const VariantSet& {
      auto it = variants_.find(v.kernel);
      return it == variants_.end() ? empty_set() : it->second;
    }();
    for (const compiler::Variant& existing : *current) {
      if (existing.id == v.id) {
        return AlreadyExists("variant '" + v.id + "' already loaded for '" +
                             v.kernel + "'");
      }
    }
    for (std::size_t j = 0; j < i; ++j) {
      if (variants[j].kernel == v.kernel && variants[j].id == v.id) {
        return AlreadyExists("variant '" + v.id + "' duplicated in load for '" +
                             v.kernel + "'");
      }
    }
  }
  // Copy-on-write per touched kernel: one swap each.
  std::map<std::string, std::vector<compiler::Variant>> grown;
  for (const compiler::Variant& v : variants) {
    auto git = grown.find(v.kernel);
    if (git == grown.end()) {
      auto it = variants_.find(v.kernel);
      git = grown.emplace(v.kernel, it == variants_.end()
                                        ? std::vector<compiler::Variant>{}
                                        : *it->second)
                .first;
    }
    git->second.push_back(v);
  }
  for (auto& [kernel, list] : grown) {
    variants_[kernel] =
        std::make_shared<const std::vector<compiler::Variant>>(std::move(list));
    ++epochs_[kernel];
  }
  return OkStatus();
}

Status KnowledgeBase::load_json(const std::string& json_text) {
  EVEREST_ASSIGN_OR_RETURN(json::Value doc, json::parse(json_text));
  EVEREST_ASSIGN_OR_RETURN(std::vector<compiler::Variant> variants,
                           compiler::variants_from_json(doc));
  return load(variants);
}

std::vector<std::string> KnowledgeBase::kernels() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  for (const auto& [kernel, list] : variants_) out.push_back(kernel);
  return out;
}

VariantSet KnowledgeBase::variants_for(const std::string& kernel) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = variants_.find(kernel);
  return it == variants_.end() ? empty_set() : it->second;
}

std::optional<compiler::Variant> KnowledgeBase::find(
    const std::string& kernel, const std::string& variant_id) const {
  const VariantSet set = variants_for(kernel);
  for (const compiler::Variant& v : *set) {
    if (v.id == variant_id) return v;
  }
  return std::nullopt;
}

Status KnowledgeBase::upsert(const std::string& kernel,
                             const std::vector<compiler::Variant>& minted,
                             std::uint64_t* epoch_out) {
  if (minted.empty()) return InvalidArgument("upsert needs >=1 variant");
  for (const compiler::Variant& v : minted) {
    if (v.kernel != kernel) {
      return InvalidArgument("variant '" + v.id + "' targets kernel '" +
                             v.kernel + "', not '" + kernel + "'");
    }
    if (v.id.empty()) return InvalidArgument("variant needs a non-empty id");
  }
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<compiler::Variant> next;
  auto it = variants_.find(kernel);
  if (it != variants_.end()) {
    // Keep every current variant whose id is not being replaced.
    for (const compiler::Variant& v : *it->second) {
      bool replaced = false;
      for (const compiler::Variant& m : minted) {
        if (m.id == v.id) {
          replaced = true;
          break;
        }
      }
      if (!replaced) next.push_back(v);
    }
  }
  auto& obs = observations_[kernel];
  for (const compiler::Variant& m : minted) {
    next.push_back(m);
    obs.erase(m.id);  // re-minted code starts with fresh calibration
  }
  variants_[kernel] =
      std::make_shared<const std::vector<compiler::Variant>>(std::move(next));
  const std::uint64_t e = ++epochs_[kernel];
  if (epoch_out != nullptr) *epoch_out = e;
  return OkStatus();
}

std::size_t KnowledgeBase::retire(const std::string& kernel,
                                  const std::vector<std::string>& variant_ids,
                                  std::uint64_t* epoch_out) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = variants_.find(kernel);
  if (it == variants_.end()) {
    if (epoch_out != nullptr) *epoch_out = 0;
    return 0;
  }
  std::vector<compiler::Variant> next;
  std::size_t removed = 0;
  auto& obs = observations_[kernel];
  for (const compiler::Variant& v : *it->second) {
    bool gone = false;
    for (const std::string& id : variant_ids) {
      if (id == v.id) {
        gone = true;
        break;
      }
    }
    if (gone) {
      ++removed;
      obs.erase(v.id);
    } else {
      next.push_back(v);
    }
  }
  if (removed > 0) {
    it->second =
        std::make_shared<const std::vector<compiler::Variant>>(std::move(next));
    ++epochs_[kernel];
  }
  if (epoch_out != nullptr) *epoch_out = epochs_[kernel];
  return removed;
}

std::uint64_t KnowledgeBase::epoch(const std::string& kernel) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = epochs_.find(kernel);
  return it == epochs_.end() ? 0 : it->second;
}

void KnowledgeBase::observe(const std::string& kernel,
                            const std::string& variant_id, double latency_us,
                            double energy_uj) {
  std::lock_guard<std::mutex> lock(mu_);
  Observation& obs = observations_[kernel][variant_id];
  obs.latency_us.add(latency_us);
  obs.energy_uj.add(energy_uj);
  ++obs.samples;
}

const Observation* KnowledgeBase::observation(
    const std::string& kernel, const std::string& variant_id) const {
  auto kit = observations_.find(kernel);
  if (kit == observations_.end()) return nullptr;
  auto vit = kit->second.find(variant_id);
  return vit == kit->second.end() ? nullptr : &vit->second;
}

namespace {
/// Blend weight of observations: 0 below 1 sample, 1 from 3 samples on.
double blend(int samples) {
  if (samples <= 0) return 0.0;
  if (samples >= 3) return 1.0;
  return samples / 3.0;
}
}  // namespace

double KnowledgeBase::expected_latency(const std::string& kernel,
                                       const compiler::Variant& variant) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Observation* obs = observation(kernel, variant.id);
  if (obs == nullptr || obs->samples == 0) return variant.latency_us;
  const double w = blend(obs->samples);
  return w * obs->latency_us.mean() + (1.0 - w) * variant.latency_us;
}

double KnowledgeBase::expected_energy(const std::string& kernel,
                                      const compiler::Variant& variant) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Observation* obs = observation(kernel, variant.id);
  if (obs == nullptr || obs->samples == 0) return variant.energy_uj;
  const double w = blend(obs->samples);
  return w * obs->energy_uj.mean() + (1.0 - w) * variant.energy_uj;
}

int KnowledgeBase::observation_count(const std::string& kernel,
                                     const std::string& variant_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Observation* obs = observation(kernel, variant_id);
  return obs == nullptr ? 0 : obs->samples;
}

}  // namespace everest::runtime
