// IR verifier: structural checks (operand counts, region counts, terminator
// placement, SSA def-before-use with region nesting) plus per-op semantic
// verifiers from the dialect registry.
#pragma once

#include "common/status.hpp"
#include "ir/module.hpp"

namespace everest::ir {

/// Verifies a whole module; returns the first violation found.
Status verify(const Module& module);

}  // namespace everest::ir
