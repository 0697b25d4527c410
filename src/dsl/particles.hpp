// Particle eDSL (paper §III-B: "Tensors and particles are two examples of
// EVEREST data-centric programming abstractions"; §III-B again: "a
// software-only implementation could explore layouts of particles as
// array-of-structures or structure-of-arrays").
//
// A ParticleKernel declares per-particle fields and update rules; lowering
// materializes ONE flat buffer whose indexing encodes the chosen layout:
//   AoS: element(p, f) = p * num_fields + f   (fields interleaved)
//   SoA: element(p, f) = f * num_particles + p (fields contiguous)
// Both are affine, so the HLS analyzer, the dependence analysis, and the
// cache simulator all see the layout decision — the knob is real IR, not a
// cost-model assumption.
//
//   ParticleKernel k("advect", 4096);
//   auto x = k.field("x"), v = k.field("v");
//   k.update(x, x + v * k.constant(0.1));
//   auto module = k.lower(ParticleLayout::kSoA);
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "ir/module.hpp"

namespace everest::dsl {

enum class ParticleLayout { kAoS, kSoA };

std::string_view to_string(ParticleLayout layout);

namespace pdetail {
struct PExprNode;
}

/// A per-particle scalar expression (field reads, constants, arithmetic,
/// elementwise functions).
class ParticleExpr {
 public:
  ParticleExpr() = default;
  [[nodiscard]] bool valid() const { return node_ != nullptr; }

  friend ParticleExpr operator+(const ParticleExpr& a, const ParticleExpr& b);
  friend ParticleExpr operator*(const ParticleExpr& a, const ParticleExpr& b);

 private:
  friend class ParticleKernel;
  explicit ParticleExpr(std::shared_ptr<pdetail::PExprNode> node)
      : node_(std::move(node)) {}
  std::shared_ptr<pdetail::PExprNode> node_;
};

/// A particle system update kernel.
class ParticleKernel {
 public:
  ParticleKernel(std::string name, std::int64_t num_particles)
      : name_(std::move(name)), num_particles_(num_particles) {}

  /// Declares a field; returns an expression reading it (current values).
  ParticleExpr field(const std::string& name);
  /// A per-particle constant.
  ParticleExpr constant(double value);

  /// Sets the update rule for a field (evaluated against current values;
  /// all reads happen before any write, two-buffer semantics).
  Status update(const std::string& field_name, ParticleExpr expr);

  [[nodiscard]] std::size_t num_fields() const { return fields_.size(); }
  [[nodiscard]] const std::string& name() const { return name_; }

  /// Lowers to a kernel-dialect function
  ///   @<name>_<layout>(%state_in: memref<N*F>, %state_out: memref<N*F>)
  /// with the layout encoded in the access pattern. By default fields
  /// without an update rule are copied through (out is a complete state);
  /// with `store_only_updated` the kernel touches only the hot fields and
  /// the caller keeps the cold ones — the optimization that makes SoA pay
  /// off for partial updates.
  Result<ir::Module> lower(ParticleLayout layout,
                           bool store_only_updated = false) const;

 private:
  std::string name_;
  std::int64_t num_particles_;
  std::vector<std::string> fields_;
  std::vector<std::shared_ptr<pdetail::PExprNode>> updates_;  // per field
};

}  // namespace everest::dsl
