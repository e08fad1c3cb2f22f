// Parameter initialization schemes.
#ifndef SGCL_TENSOR_INIT_H_
#define SGCL_TENSOR_INIT_H_

#include <cstdint>

#include "common/rng.h"
#include "tensor/tensor.h"

namespace sgcl {

// Glorot/Xavier uniform: U(-a, a) with a = sqrt(6 / (fan_in + fan_out)).
// Returns a [fan_in, fan_out] tensor with requires_grad set.
Tensor XavierUniform(int64_t fan_in, int64_t fan_out, Rng* rng);

// Zero-initialized trainable tensor (biases).
Tensor ZerosParam(int64_t rows, int64_t cols);

}  // namespace sgcl

#endif  // SGCL_TENSOR_INIT_H_
