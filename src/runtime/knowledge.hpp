// Application knowledge base (mARGOt-style, paper §IV): holds the variant
// metadata emitted by the compiler plus online observations, and blends the
// two into calibrated expectations.
//
// Hot-swap contract (the compile↔serve loop, DESIGN.md row 20): the
// variant set of a kernel is an immutable snapshot behind a shared_ptr.
// Readers (autotuner selection, serving workers) grab the snapshot once
// and iterate it lock-free; writers (the JIT compilation service
// publishing freshly minted variants, or retiring superseded ones) build
// a NEW vector and swap the pointer under the mutex, bumping the kernel's
// epoch. Epoch-based retirement falls out of the shared_ptr: a batch that
// selected against epoch N keeps that snapshot alive until it finishes,
// while every selection started after the swap sees epoch N+1 — a retired
// variant is never handed to a NEW batch (regression-tested under TSan in
// test_runtime).
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "common/status.hpp"
#include "compiler/variants.hpp"

namespace everest::runtime {

/// Online measurements for one variant.
struct Observation {
  Ewma latency_us{0.2};
  Ewma energy_uj{0.2};
  int samples = 0;
};

/// Immutable snapshot of one kernel's variant set. Holders may iterate it
/// without locks for as long as they keep the pointer alive.
using VariantSet = std::shared_ptr<const std::vector<compiler::Variant>>;

/// Per-application store of variants and their observed behavior.
///
/// Thread safety: everything is safe to call concurrently. observe /
/// expected_* / observation_count are guarded by an internal mutex;
/// variants_for returns an immutable snapshot (see the hot-swap contract
/// above), so any number of serving workers may select variants while the
/// JIT publishes new ones mid-flight.
class KnowledgeBase {
 public:
  KnowledgeBase() = default;
  /// Copies take a consistent snapshot of the source (its mutex is held
  /// during the copy); the copy starts with its own unlocked mutex.
  KnowledgeBase(const KnowledgeBase& other);

  /// Loads compiler metadata (appends; ids must be unique per kernel).
  Status load(const std::vector<compiler::Variant>& variants);
  /// Convenience: load from serialized metadata.
  Status load_json(const std::string& json_text);

  [[nodiscard]] std::vector<std::string> kernels() const;
  /// Immutable snapshot of the kernel's current variant set (never null;
  /// empty vector for unknown kernels). Iterate the snapshot, not
  /// repeated calls — each call may observe a newer epoch.
  [[nodiscard]] VariantSet variants_for(const std::string& kernel) const;
  /// Copy of the named variant in the CURRENT snapshot (nullopt when the
  /// kernel or id is unknown — including ids retired by a hot swap).
  [[nodiscard]] std::optional<compiler::Variant> find(
      const std::string& kernel, const std::string& variant_id) const;

  // ---- hot swap (the JIT publish path) ----

  /// Adds or replaces variants by id in one atomic swap. Replaced ids
  /// drop their accumulated observations (a re-minted variant is new
  /// code; stale EWMAs would mis-calibrate it). Bumps the kernel epoch.
  /// Returns the post-swap epoch via `epoch_out` when non-null.
  Status upsert(const std::string& kernel,
                const std::vector<compiler::Variant>& minted,
                std::uint64_t* epoch_out = nullptr);

  /// Removes the named variants in one atomic swap (their observations
  /// too). Unknown ids are ignored. Returns how many were removed; bumps
  /// the epoch when at least one was.
  std::size_t retire(const std::string& kernel,
                     const std::vector<std::string>& variant_ids,
                     std::uint64_t* epoch_out = nullptr);

  /// Monotone per-kernel version: bumped by every load/upsert/retire that
  /// changed the set. 0 = kernel never loaded.
  [[nodiscard]] std::uint64_t epoch(const std::string& kernel) const;

  /// Records a runtime measurement for a variant.
  void observe(const std::string& kernel, const std::string& variant_id,
               double latency_us, double energy_uj);

  /// Expected latency/energy: the static estimate until enough samples
  /// exist, then the observed EWMA (smooth handover after 3 samples).
  [[nodiscard]] double expected_latency(const std::string& kernel,
                                        const compiler::Variant& variant) const;
  [[nodiscard]] double expected_energy(const std::string& kernel,
                                       const compiler::Variant& variant) const;

  [[nodiscard]] int observation_count(const std::string& kernel,
                                      const std::string& variant_id) const;

 private:
  /// Looks up an observation; caller must hold mu_.
  [[nodiscard]] const Observation* observation(
      const std::string& kernel, const std::string& variant_id) const;

  /// Guards the snapshot map, epochs, and observations.
  mutable std::mutex mu_;
  std::map<std::string, VariantSet> variants_;
  std::map<std::string, std::uint64_t> epochs_;
  std::map<std::string, std::map<std::string, Observation>> observations_;
};

}  // namespace everest::runtime
