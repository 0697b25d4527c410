#include "dsl/particles.hpp"

#include <map>

#include "ir/builder.hpp"
#include "ir/dialect.hpp"

namespace everest::dsl {

std::string_view to_string(ParticleLayout layout) {
  return layout == ParticleLayout::kAoS ? "aos" : "soa";
}

namespace pdetail {

enum class PKind { kField, kConstant, kBinary };

struct PExprNode {
  PKind kind;
  std::vector<std::shared_ptr<PExprNode>> operands;
  int field_index = -1;   // kField
  double value = 0.0;     // kConstant
  std::string op;         // kBinary kind
};

}  // namespace pdetail

using pdetail::PExprNode;
using pdetail::PKind;

namespace {

std::shared_ptr<PExprNode> binary_node(const std::string& op,
                                       std::shared_ptr<PExprNode> a,
                                       std::shared_ptr<PExprNode> b) {
  auto n = std::make_shared<PExprNode>();
  n->kind = PKind::kBinary;
  n->op = op;
  n->operands = {std::move(a), std::move(b)};
  return n;
}

}  // namespace

ParticleExpr operator+(const ParticleExpr& a, const ParticleExpr& b) {
  return ParticleExpr(binary_node("add", a.node_, b.node_));
}
ParticleExpr operator*(const ParticleExpr& a, const ParticleExpr& b) {
  return ParticleExpr(binary_node("mul", a.node_, b.node_));
}

ParticleExpr ParticleKernel::field(const std::string& name) {
  int index = -1;
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (fields_[i] == name) index = static_cast<int>(i);
  }
  if (index < 0) {
    index = static_cast<int>(fields_.size());
    fields_.push_back(name);
    updates_.push_back(nullptr);
  }
  auto n = std::make_shared<PExprNode>();
  n->kind = PKind::kField;
  n->field_index = index;
  return ParticleExpr(std::move(n));
}

ParticleExpr ParticleKernel::constant(double value) {
  auto n = std::make_shared<PExprNode>();
  n->kind = PKind::kConstant;
  n->value = value;
  return ParticleExpr(std::move(n));
}

Status ParticleKernel::update(const std::string& field_name,
                              ParticleExpr expr) {
  if (!expr.valid()) return InvalidArgument("invalid update expression");
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (fields_[i] == field_name) {
      updates_[i] = expr.node_;
      return OkStatus();
    }
  }
  return NotFound("field '" + field_name + "' was never declared");
}

namespace {

using ir::Attribute;
using ir::OpBuilder;
using ir::Type;
using ir::Value;

class ParticleLowerer {
 public:
  ParticleLowerer(OpBuilder& body, Value particle_iv, Value state_in,
                  ParticleLayout layout, std::int64_t num_particles,
                  std::int64_t num_fields)
      : body_(body),
        iv_(particle_iv),
        state_in_(state_in),
        layout_(layout),
        num_particles_(num_particles),
        num_fields_(num_fields) {}

  /// Layout-dependent element index for (current particle, field f).
  Value element_index(int field) {
    if (layout_ == ParticleLayout::kAoS) {
      // p * F + f
      Value stride = body_.constant_index(num_fields_);
      Value scaled = body_.create_value("kernel.binop", {iv_, stride},
                                        Type::index(),
                                        {{"op", Attribute::string("mul")}});
      Value offset = body_.constant_index(field);
      return body_.create_value("kernel.binop", {scaled, offset},
                                Type::index(),
                                {{"op", Attribute::string("add")}});
    }
    // SoA: f * N + p
    Value base = body_.constant_index(field * num_particles_);
    return body_.create_value("kernel.binop", {iv_, base}, Type::index(),
                              {{"op", Attribute::string("add")}});
  }

  Result<Value> eval(const std::shared_ptr<PExprNode>& node) {
    if (node == nullptr) return InvalidArgument("null particle expression");
    switch (node->kind) {
      case PKind::kField: {
        auto it = field_loads_.find(node->field_index);
        if (it != field_loads_.end()) return it->second;
        Value idx = element_index(node->field_index);
        Value loaded = body_.create_value("kernel.load", {state_in_, idx},
                                          Type::f64());
        field_loads_.emplace(node->field_index, loaded);
        return loaded;
      }
      case PKind::kConstant:
        return body_.constant_f64(node->value);
      case PKind::kBinary: {
        EVEREST_ASSIGN_OR_RETURN(Value a, eval(node->operands[0]));
        EVEREST_ASSIGN_OR_RETURN(Value b, eval(node->operands[1]));
        return body_.create_value("kernel.binop", {a, b}, Type::f64(),
                                  {{"op", Attribute::string(node->op)}});
      }
    }
    return Internal("unhandled particle expression kind");
  }

 private:
  OpBuilder& body_;
  Value iv_;
  Value state_in_;
  ParticleLayout layout_;
  std::int64_t num_particles_;
  std::int64_t num_fields_;
  std::map<int, Value> field_loads_;
};

}  // namespace

Result<ir::Module> ParticleKernel::lower(ParticleLayout layout,
                                         bool store_only_updated) const {
  ir::register_everest_dialects();
  if (fields_.empty()) {
    return FailedPrecondition("particle kernel '" + name_ +
                              "' declares no fields");
  }
  const auto num_fields = static_cast<std::int64_t>(fields_.size());
  const std::int64_t total = num_particles_ * num_fields;
  ir::Module module(name_ + "_module");
  Type mem = Type::memref({total}, ir::ScalarKind::kF64,
                          ir::MemorySpace::kDevice);
  const std::string fn_name =
      name_ + "_" + std::string(to_string(layout));
  EVEREST_ASSIGN_OR_RETURN(
      ir::Function * fn,
      module.add_function(fn_name, Type::function({mem, mem}, {})));
  fn->set_attr("ev.layout", Attribute::string(std::string(to_string(layout))));
  fn->set_attr("ev.num_particles", Attribute::integer(num_particles_));
  fn->set_attr("ev.num_fields", Attribute::integer(num_fields));
  if (store_only_updated) {
    fn->set_attr("ev.partial_update", Attribute::boolean(true));
  }

  OpBuilder b(&fn->entry());
  ir::Operation& loop = b.create("kernel.for", {}, {},
                                 {{"lb", Attribute::integer(0)},
                                  {"ub", Attribute::integer(num_particles_)},
                                  {"step", Attribute::integer(1)}});
  ir::Block& body = loop.emplace_region().emplace_block({Type::index()});
  OpBuilder ib(&body);
  ParticleLowerer lowerer(ib, body.arg(0), fn->arg(0), layout,
                          num_particles_, num_fields);
  // Evaluate every update against the *input* state, then write all
  // results to the output state (two-buffer semantics).
  std::vector<Value> results(fields_.size());
  std::vector<bool> materialize(fields_.size(), true);
  for (std::size_t f = 0; f < fields_.size(); ++f) {
    if (updates_[f] != nullptr) {
      EVEREST_ASSIGN_OR_RETURN(results[f], lowerer.eval(updates_[f]));
    } else if (!store_only_updated) {
      // Copy-through of untouched fields (complete output state).
      auto node = std::make_shared<PExprNode>();
      node->kind = PKind::kField;
      node->field_index = static_cast<int>(f);
      EVEREST_ASSIGN_OR_RETURN(results[f], lowerer.eval(node));
    } else {
      materialize[f] = false;  // cold field: never touched
    }
  }
  for (std::size_t f = 0; f < fields_.size(); ++f) {
    if (!materialize[f]) continue;
    Value idx = lowerer.element_index(static_cast<int>(f));
    ib.create("kernel.store", {results[f], fn->arg(1), idx}, {});
  }
  ib.create("kernel.yield", {}, {});
  b.ret();
  return module;
}

}  // namespace everest::dsl
