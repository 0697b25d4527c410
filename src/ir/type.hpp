// EVEREST IR type system (paper §III-A: "a unified MLIR representation").
//
// Types are small immutable values with structural equality:
//   scalar:  f32 f64 i1 i8 i16 i32 i64 index
//   tensor:  tensor<4x8xf64>         (value semantics, dense)
//   memref:  memref<4x8xf64, space>  (buffer semantics, memory space)
//   stream:  stream<f32>             (unbounded element stream, edge I/O)
//   func:    (T...) -> (T...)
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace everest::ir {

enum class ScalarKind : std::uint8_t {
  kF32, kF64, kI1, kI8, kI16, kI32, kI64, kIndex,
};

std::string_view to_string(ScalarKind kind);

/// Memory spaces for memref types, mirroring the EVEREST node model
/// (paper Fig. 4: host DRAM, FPGA-local memory, on-chip BRAM).
enum class MemorySpace : std::uint8_t {
  kDefault = 0,   // host DRAM
  kDevice = 1,    // FPGA-attached DDR/HBM
  kOnChip = 2,    // BRAM/URAM scratchpad
};

class Type;

/// Function signature: inputs -> results.
struct FunctionTypeData {
  std::vector<Type> inputs;
  std::vector<Type> results;
};

/// Immutable, cheaply copyable type handle.
class Type {
 public:
  enum class Kind : std::uint8_t { kNone, kScalar, kTensor, kMemRef, kStream, kFunction };

  Type() = default;

  static Type scalar(ScalarKind kind);
  static Type f32() { return scalar(ScalarKind::kF32); }
  static Type f64() { return scalar(ScalarKind::kF64); }
  static Type i1() { return scalar(ScalarKind::kI1); }
  static Type i32() { return scalar(ScalarKind::kI32); }
  static Type i64() { return scalar(ScalarKind::kI64); }
  static Type index() { return scalar(ScalarKind::kIndex); }
  static Type tensor(std::vector<std::int64_t> shape, ScalarKind elem);
  static Type memref(std::vector<std::int64_t> shape, ScalarKind elem,
                     MemorySpace space = MemorySpace::kDefault);
  static Type stream(ScalarKind elem);
  static Type function(std::vector<Type> inputs, std::vector<Type> results);

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool valid() const { return kind_ != Kind::kNone; }
  [[nodiscard]] bool is_scalar() const { return kind_ == Kind::kScalar; }
  [[nodiscard]] bool is_tensor() const { return kind_ == Kind::kTensor; }
  [[nodiscard]] bool is_memref() const { return kind_ == Kind::kMemRef; }
  [[nodiscard]] bool is_stream() const { return kind_ == Kind::kStream; }
  [[nodiscard]] bool is_function() const { return kind_ == Kind::kFunction; }
  [[nodiscard]] bool is_shaped() const { return is_tensor() || is_memref(); }

  /// Element kind for scalar/tensor/memref/stream types.
  [[nodiscard]] ScalarKind elem() const { return elem_; }
  /// Shape for tensor/memref types (empty for rank-0).
  [[nodiscard]] const std::vector<std::int64_t>& shape() const { return shape_; }
  [[nodiscard]] std::size_t rank() const { return shape_.size(); }
  /// Total element count for shaped types (1 for rank-0).
  [[nodiscard]] std::int64_t num_elements() const;
  /// Total byte footprint for shaped types.
  [[nodiscard]] std::int64_t byte_size() const;
  [[nodiscard]] MemorySpace memory_space() const { return space_; }
  /// Function signature (valid only for function types).
  [[nodiscard]] const FunctionTypeData& signature() const { return *fn_; }

  /// Returns this tensor/memref type re-homed to another memory space.
  [[nodiscard]] Type with_memory_space(MemorySpace space) const;

  bool operator==(const Type& other) const;
  bool operator!=(const Type& other) const { return !(*this == other); }

  /// MLIR-like rendering, e.g. "tensor<32x32xf64>".
  [[nodiscard]] std::string to_string() const;

 private:
  Kind kind_ = Kind::kNone;
  ScalarKind elem_ = ScalarKind::kF64;
  MemorySpace space_ = MemorySpace::kDefault;
  std::vector<std::int64_t> shape_;
  std::shared_ptr<const FunctionTypeData> fn_;
};

}  // namespace everest::ir
