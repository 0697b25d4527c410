// DSL annotations: the "extra characteristics of the algorithms and data"
// the paper's domain-specific extensions carry (§I, §III-A). They attach to
// DSL inputs/tasks and are propagated into IR attributes so the compiler
// middle-end and the runtime can act on them.
#pragma once

#include <string>

#include "ir/attribute.hpp"

namespace everest::dsl {

/// How the data arrives / lives.
enum class Locality {
  kResident,    // fits in node memory, batch-processed
  kStreaming,   // arrives continuously from end-point devices
  kDistributed, // partitioned across nodes
};

/// Data-characteristic and security annotations for one datum or task.
struct DataAnnotations {
  /// Expected data volume per invocation, in MiB (drives placement).
  double volume_mb = 0.0;
  /// Arrival/placement pattern.
  Locality locality = Locality::kResident;
  /// Confidentiality requirement: data must be encrypted off-chip.
  bool confidential = false;
  /// Integrity requirement: data must be authenticated (hash/MAC).
  bool integrity = false;
  /// Free-form provenance tag ("wind-sensor", "FCD", ...).
  std::string provenance;

  /// Serializes into IR attributes under canonical keys (ev.volume_mb,
  /// ev.locality, ev.confidential, ev.integrity, ev.provenance).
  void attach_to(ir::AttrMap& attrs) const;

  /// Reads annotations back from IR attributes (missing keys ⇒ defaults).
  static DataAnnotations from_attrs(const ir::AttrMap& attrs);
};

}  // namespace everest::dsl
