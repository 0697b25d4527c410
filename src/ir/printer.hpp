// Textual IR emission. The format round-trips through parser.hpp:
//
//   module @app {
//     func @step(%arg0: tensor<4xf64>) -> (tensor<4xf64>) {
//       %0 = tensor.add(%arg0, %arg0) : (tensor<4xf64>, tensor<4xf64>) -> (tensor<4xf64>)
//       builtin.return(%0) : (tensor<4xf64>) -> ()
//     }
//   }
#pragma once

#include <string>

#include "ir/module.hpp"

namespace everest::ir {

/// Prints a module in parseable textual form.
std::string print(const Module& module);

}  // namespace everest::ir
