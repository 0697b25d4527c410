#include "jit/specialize.hpp"

#include <algorithm>
#include <cmath>
#include <set>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "compiler/dse.hpp"

namespace everest::jit {

namespace {

/// Scales the scale-1 profile to the tuple's data feature (volume is
/// linear in scale for every cost axis).
compiler::KernelProfile scaled_profile(const compiler::KernelProfile& p,
                                       double scale) {
  compiler::KernelProfile out = p;
  out.flops *= scale;
  out.special_ops *= scale;
  out.bytes_read *= scale;
  out.bytes_written *= scale;
  out.live_bytes = static_cast<std::int64_t>(
      static_cast<double>(p.live_bytes) * scale);
  return out;
}

/// FNV-1a over the tuple key: folds the tuple identity into the DSE seed
/// so two tuples never share an exploration stream by accident.
std::uint64_t tuple_seed(const HotTuple& tuple, std::uint64_t seed) {
  return fnv1a(tuple.key()) ^ seed;
}

}  // namespace

ShapeEstimate estimate_shaped(const KernelSpec& spec, int threads, int tile,
                              const std::string& layout, double scale) {
  const compiler::SwEstimate est = compiler::estimate_software(
      scaled_profile(spec.profile, scale), spec.cpu, threads, tile, layout);
  double match = 1.0;
  if (tile > 0) {
    const double dim = std::max(1.0, spec.base_dim * std::sqrt(scale));
    const double r = static_cast<double>(tile) / dim;
    if (r > 1.0) {
      // The tile overshoots the problem: the padded remainder iterations
      // are wasted work proportional to the overshoot.
      match = r;
    } else {
      // Finer tiles pay strip-mining overhead (loop bookkeeping, edge
      // re-loads) that an exact-fit tile elides.
      match = 1.0 + 0.25 * (1.0 - r);
    }
  }
  ShapeEstimate out;
  out.latency_us = est.latency_us * match;
  out.energy_uj = est.energy_uj * match;
  return out;
}

ShapeEstimate estimate_variant(const KernelSpec& spec,
                               const compiler::Variant& variant, double scale) {
  if (variant.target == compiler::TargetKind::kFpga) {
    // HLS designs are shape-agnostic in this model: static estimate,
    // linear in volume.
    return ShapeEstimate{variant.latency_us * scale,
                         variant.energy_uj * scale};
  }
  return estimate_shaped(spec, variant.threads, variant.tile, variant.layout,
                         scale);
}

double oracle_latency_us(const KernelSpec& spec, double scale) {
  const double dim = std::max(1.0, spec.base_dim * std::sqrt(scale));
  double best = std::numeric_limits<double>::infinity();
  for (int threads : spec.thread_candidates) {
    for (const std::string& layout : spec.layouts) {
      // The oracle knows the exact-fit tile; sweep it plus the generic
      // power-of-two menu (including the L2-fitting sizes an exact fit
      // overflows at large dims) so "no tiling wins" shapes and
      // cache-bounded shapes are both represented.
      for (int tile : {0, 32, 64, 128, 256, 512,
                       static_cast<int>(std::lround(dim)),
                       static_cast<int>(std::lround(dim / 2.0))}) {
        if (tile < 0) continue;
        best = std::min(
            best, estimate_shaped(spec, threads, tile, layout, scale)
                      .latency_us);
      }
    }
  }
  return best;
}

Result<MintedVariants> specialize(const KernelSpec& spec,
                                  const SpecializeRequest& request) {
  if (spec.kernel.empty()) return InvalidArgument("spec needs a kernel name");
  if (spec.profile.flops <= 0.0 && spec.profile.total_bytes() <= 0.0) {
    return InvalidArgument("kernel '" + spec.kernel +
                           "' has an empty cost profile; nothing to "
                           "specialize against");
  }
  if (spec.thread_candidates.empty() || spec.layouts.empty()) {
    return InvalidArgument("kernel '" + spec.kernel +
                           "' spec has an empty knob space");
  }
  const double scale = request.tuple.scale();
  const double dim = std::max(1.0, spec.base_dim * std::sqrt(scale));

  // ---- tile menu: exact fit, its pow2 neighbors, plus seeded DSE
  // exploration points (deterministic in (tuple, seed)). ----
  std::set<int> tiles;
  const int fit = std::max(8, static_cast<int>(std::lround(dim)));
  tiles.insert(fit);
  const int pow2_below = 1 << static_cast<int>(std::floor(std::log2(fit)));
  tiles.insert(std::max(8, pow2_below));
  tiles.insert(std::max(8, pow2_below * 2));
  tiles.insert(std::max(8, fit / 2));
  tiles.insert(std::min(1024, fit * 2));
  static constexpr int kMenu[] = {8,  16, 24,  32,  48,  64,
                                  96, 128, 192, 256, 384, 512};
  SplitMix64 sm(tuple_seed(request.tuple, request.seed));
  for (int i = 0; i < 2; ++i) {
    tiles.insert(kMenu[sm.next() % (sizeof(kMenu) / sizeof(kMenu[0]))]);
  }
  tiles.insert(0);  // the untiled point anchors the front

  // ---- sweep: threads x tiles x layouts through the shape-aware
  // roofline (the DSE candidate set). ----
  std::vector<compiler::Variant> candidates;
  for (int threads : spec.thread_candidates) {
    for (int tile : tiles) {
      for (const std::string& layout : spec.layouts) {
        const ShapeEstimate est =
            estimate_shaped(spec, threads, tile, layout, scale);
        compiler::Variant v;
        v.kernel = spec.kernel;
        v.target = compiler::TargetKind::kCpu;
        v.threads = threads;
        v.tile = tile;
        v.layout = layout;
        v.specialized_scale = scale;
        // Normalized to scale 1: the autotuner multiplies expectations by
        // the live data_scale, so at the target scale the prediction
        // reproduces est exactly.
        v.latency_us = est.latency_us / scale;
        v.energy_uj = est.energy_uj / scale;
        v.bytes_in = spec.profile.bytes_read * scale;
        v.bytes_out = spec.profile.bytes_written * scale;
        candidates.push_back(std::move(v));
      }
    }
  }

  // ---- DSE filter: Pareto front on (latency, energy), then knee point
  // plus the two extremes — the same selection shape the offline
  // pipeline hands the runtime. ----
  std::vector<compiler::Variant> front =
      compiler::pareto_variants(candidates, {});
  if (front.empty()) return Internal("empty Pareto front");
  std::vector<std::size_t> picks;
  picks.push_back(compiler::knee_point(front));
  std::size_t min_lat = 0, min_en = 0;
  for (std::size_t i = 1; i < front.size(); ++i) {
    if (front[i].latency_us < front[min_lat].latency_us) min_lat = i;
    if (front[i].energy_uj < front[min_en].energy_uj) min_en = i;
  }
  picks.push_back(min_lat);
  picks.push_back(min_en);
  std::sort(picks.begin(), picks.end());
  picks.erase(std::unique(picks.begin(), picks.end()), picks.end());

  MintedVariants out;
  out.dse_points = candidates.size();
  out.pareto_size = front.size();
  for (std::size_t i : picks) {
    compiler::Variant v = front[i];
    v.id = strprintf("jit-%s-b%d%s%s-v%u-t%d-tile%d-%s", spec.kernel.c_str(),
                     request.tuple.bucket,
                     request.tuple.tenant.empty() ? "" : "-",
                     request.tuple.tenant.c_str(), request.version, v.threads,
                     v.tile, v.layout.c_str());
    out.variants.push_back(std::move(v));
  }
  out.descriptor_json = compiler::variants_to_json(out.variants).dump();
  return out;
}

}  // namespace everest::jit
