#include "ir/type.hpp"

namespace everest::ir {

std::string_view to_string(ScalarKind kind) {
  switch (kind) {
    case ScalarKind::kF32: return "f32";
    case ScalarKind::kF64: return "f64";
    case ScalarKind::kI1: return "i1";
    case ScalarKind::kI8: return "i8";
    case ScalarKind::kI16: return "i16";
    case ScalarKind::kI32: return "i32";
    case ScalarKind::kI64: return "i64";
    case ScalarKind::kIndex: return "index";
  }
  return "?";
}

namespace {

/// Bytes occupied by one element of the given scalar kind.
std::size_t byte_width(ScalarKind kind) {
  switch (kind) {
    case ScalarKind::kF32: return 4;
    case ScalarKind::kF64: return 8;
    case ScalarKind::kI1: return 1;
    case ScalarKind::kI8: return 1;
    case ScalarKind::kI16: return 2;
    case ScalarKind::kI32: return 4;
    case ScalarKind::kI64: return 8;
    case ScalarKind::kIndex: return 8;
  }
  return 8;
}

std::string_view space_name(MemorySpace space) {
  switch (space) {
    case MemorySpace::kDefault: return "host";
    case MemorySpace::kDevice: return "device";
    case MemorySpace::kOnChip: return "onchip";
  }
  return "?";
}

}  // namespace

Type Type::scalar(ScalarKind kind) {
  Type t;
  t.kind_ = Kind::kScalar;
  t.elem_ = kind;
  return t;
}

Type Type::tensor(std::vector<std::int64_t> shape, ScalarKind elem) {
  Type t;
  t.kind_ = Kind::kTensor;
  t.elem_ = elem;
  t.shape_ = std::move(shape);
  return t;
}

Type Type::memref(std::vector<std::int64_t> shape, ScalarKind elem,
                  MemorySpace space) {
  Type t;
  t.kind_ = Kind::kMemRef;
  t.elem_ = elem;
  t.shape_ = std::move(shape);
  t.space_ = space;
  return t;
}

Type Type::stream(ScalarKind elem) {
  Type t;
  t.kind_ = Kind::kStream;
  t.elem_ = elem;
  return t;
}

Type Type::function(std::vector<Type> inputs, std::vector<Type> results) {
  Type t;
  t.kind_ = Kind::kFunction;
  t.fn_ = std::make_shared<const FunctionTypeData>(
      FunctionTypeData{std::move(inputs), std::move(results)});
  return t;
}

std::int64_t Type::num_elements() const {
  std::int64_t n = 1;
  for (std::int64_t d : shape_) n *= d;
  return n;
}

std::int64_t Type::byte_size() const {
  return num_elements() * static_cast<std::int64_t>(byte_width(elem_));
}

Type Type::with_memory_space(MemorySpace space) const {
  Type t = *this;
  t.space_ = space;
  return t;
}

bool Type::operator==(const Type& other) const {
  if (kind_ != other.kind_) return false;
  switch (kind_) {
    case Kind::kNone: return true;
    case Kind::kScalar:
    case Kind::kStream: return elem_ == other.elem_;
    case Kind::kTensor: return elem_ == other.elem_ && shape_ == other.shape_;
    case Kind::kMemRef:
      return elem_ == other.elem_ && shape_ == other.shape_ &&
             space_ == other.space_;
    case Kind::kFunction:
      return fn_->inputs == other.fn_->inputs &&
             fn_->results == other.fn_->results;
  }
  return false;
}

std::string Type::to_string() const {
  switch (kind_) {
    case Kind::kNone: return "none";
    case Kind::kScalar: return std::string(ir::to_string(elem_));
    case Kind::kTensor:
    case Kind::kMemRef: {
      std::string out = is_tensor() ? "tensor<" : "memref<";
      for (std::int64_t d : shape_) {
        out += std::to_string(d);
        out += 'x';
      }
      out += ir::to_string(elem_);
      if (is_memref() && space_ != MemorySpace::kDefault) {
        out += ", ";
        out += space_name(space_);
      }
      out += '>';
      return out;
    }
    case Kind::kStream: {
      std::string out = "stream<";
      out += ir::to_string(elem_);
      out += '>';
      return out;
    }
    case Kind::kFunction: {
      std::string out = "(";
      for (std::size_t i = 0; i < fn_->inputs.size(); ++i) {
        if (i) out += ", ";
        out += fn_->inputs[i].to_string();
      }
      out += ") -> (";
      for (std::size_t i = 0; i < fn_->results.size(); ++i) {
        if (i) out += ", ";
        out += fn_->results[i].to_string();
      }
      out += ')';
      return out;
    }
  }
  return "?";
}

}  // namespace everest::ir
