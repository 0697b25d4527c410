#include "ir/verifier.hpp"

#include <set>

#include "ir/dialect.hpp"

namespace everest::ir {

namespace {

/// Identity of a value for def-before-use tracking.
struct ValueKey {
  const void* def;
  unsigned index;
  bool operator<(const ValueKey& other) const {
    return def != other.def ? def < other.def : index < other.index;
  }
};

ValueKey key_of(const Value& v) {
  if (v.is_op_result()) return {v.defining_op(), v.index()};
  return {v.owner_block(), v.index() + (1u << 30)};
}

class FunctionVerifier {
 public:
  Status run(const Function& fn) {
    std::set<ValueKey> visible;
    // Function arguments are visible throughout the body.
    const Block& entry = fn.entry();
    for (unsigned i = 0; i < entry.num_args(); ++i) {
      visible.insert({&entry, i + (1u << 30)});
    }
    return verify_block(fn.entry(), visible, fn.name());
  }

 private:
  Status verify_block(const Block& block, std::set<ValueKey> visible,
                      const std::string& fn_name) {
    for (std::size_t i = 0; i < block.size(); ++i) {
      const Operation& op = block.op(i);
      EVEREST_RETURN_IF_ERROR(verify_op(op, i, block, visible, fn_name));
      // Results become visible to later ops in this block and nested regions.
      for (unsigned r = 0; r < op.num_results(); ++r) {
        visible.insert({&op, r});
      }
    }
    return OkStatus();
  }

  Status verify_op(const Operation& op, std::size_t position,
                   const Block& block, const std::set<ValueKey>& visible,
                   const std::string& fn_name) {
    const OpDef* def = DialectRegistry::instance().lookup(op.name());
    auto err = [&](const std::string& what) {
      return InvalidArgument("in @" + fn_name + ", op '" + op.name() +
                             "': " + what);
    };
    if (def == nullptr) return err("not registered in any dialect");

    const int n_operands = static_cast<int>(op.num_operands());
    if (n_operands < def->min_operands) {
      return err("expects at least " + std::to_string(def->min_operands) +
                 " operands, got " + std::to_string(n_operands));
    }
    if (def->max_operands >= 0 && n_operands > def->max_operands) {
      return err("expects at most " + std::to_string(def->max_operands) +
                 " operands, got " + std::to_string(n_operands));
    }
    if (def->num_results >= 0 &&
        static_cast<int>(op.num_results()) != def->num_results) {
      return err("expects " + std::to_string(def->num_results) + " results");
    }
    if (def->num_regions >= 0 &&
        static_cast<int>(op.num_regions()) != def->num_regions) {
      return err("expects " + std::to_string(def->num_regions) + " regions");
    }
    if (def->is_terminator && position + 1 != block.size()) {
      return err("terminator must be the last op of its block");
    }
    for (const std::string& attr : def->required_attrs) {
      if (!op.has_attr(attr)) return err("missing required attr '" + attr + "'");
    }

    // SSA: every operand must have been defined earlier in an enclosing scope.
    for (std::size_t i = 0; i < op.num_operands(); ++i) {
      const Value& v = op.operand(i);
      if (!v.valid()) return err("operand " + std::to_string(i) + " is null");
      if (visible.find(key_of(v)) == visible.end()) {
        return err("operand " + std::to_string(i) +
                   " used before definition (SSA violation)");
      }
    }

    // Nested regions: block args enter scope, then ops are verified with the
    // enclosing values still visible (lexical scoping as in MLIR).
    for (std::size_t r = 0; r < op.num_regions(); ++r) {
      for (const auto& nested : op.region(r)) {
        std::set<ValueKey> inner = visible;
        for (unsigned a = 0; a < nested->num_args(); ++a) {
          inner.insert({nested.get(), a + (1u << 30)});
        }
        EVEREST_RETURN_IF_ERROR(verify_block(*nested, std::move(inner), fn_name));
      }
    }

    if (def->verify) {
      Status st = def->verify(op);
      if (!st.ok()) {
        return InvalidArgument("in @" + fn_name + ": " + st.message());
      }
    }
    return OkStatus();
  }
};

}  // namespace

Status verify(const Module& module) {
  register_everest_dialects();
  for (const auto& fn : module) {
    EVEREST_RETURN_IF_ERROR(FunctionVerifier().run(*fn));
  }
  return OkStatus();
}

}  // namespace everest::ir
