// Differentiable dense tensor ops.
//
// All functions are pure: they allocate a fresh output tensor and, when any
// input requires grad, wire a backward closure into the autograd tape.
// Rank-2 row-major tensors are assumed unless stated otherwise. Graph
// gather/scatter/segment ops live in "tensor/graph_ops.h".
#ifndef SGCL_TENSOR_OPS_H_
#define SGCL_TENSOR_OPS_H_

#include <vector>

#include "tensor/tensor.h"

namespace sgcl {

// ---- Linear algebra ----

// [m,k] x [k,n] -> [m,n].
Tensor MatMul(const Tensor& a, const Tensor& b);
// a [m,k], b [n,k] -> a * b^T, [m,n]. Avoids materializing b^T.
Tensor MatMulTransB(const Tensor& a, const Tensor& b);
// [m,n] -> [n,m].
Tensor Transpose(const Tensor& a);

// ---- Elementwise / broadcast ----

// Same shape, or b of shape [1,n] broadcast across a's rows.
Tensor Add(const Tensor& a, const Tensor& b);
Tensor Sub(const Tensor& a, const Tensor& b);
// Elementwise product; shapes must match exactly.
Tensor Mul(const Tensor& a, const Tensor& b);
// Row scaling: x [n,d] * c [n,1] -> [n,d].
Tensor MulBroadcastCol(const Tensor& x, const Tensor& c);
Tensor AddScalar(const Tensor& a, float s);
Tensor MulScalar(const Tensor& a, float s);
Tensor Neg(const Tensor& a);

// ---- Activations & pointwise transforms ----

Tensor Relu(const Tensor& a);
Tensor LeakyRelu(const Tensor& a, float negative_slope);
Tensor Sigmoid(const Tensor& a);
Tensor Exp(const Tensor& a);
// Numerically guarded: log(max(a, eps)).
Tensor Log(const Tensor& a, float eps = 1e-12f);
// Numerically stable log(1 + exp(a)).
Tensor Softplus(const Tensor& a);

// ---- Reductions ----

// Sum / mean of all elements -> [1,1].
Tensor Sum(const Tensor& a);
Tensor Mean(const Tensor& a);
// Sum of squared elements -> [1,1].
Tensor SumSquares(const Tensor& a);
// sqrt(sum a_ij^2 + eps) -> [1,1]; the Frobenius norm used by the paper's
// weight regularizer (Eq. 26).
Tensor FrobeniusNorm(const Tensor& a, float eps = 1e-12f);
// Per-row sum: [n,d] -> [n,1].
Tensor RowSum(const Tensor& a);

// ---- Row-wise normalizations ----

// x_i / max(||x_i||_2, eps).
Tensor RowL2Normalize(const Tensor& a, float eps = 1e-12f);

// ---- Structure ----

// [n,da] ++ [n,db] -> [n,da+db].
Tensor ConcatCols(const Tensor& a, const Tensor& b);

// ---- Losses ----

// Mean softmax cross-entropy over rows; labels[i] in [0, C).
Tensor CrossEntropyWithLogits(const Tensor& logits,
                              const std::vector<int>& labels);
// Mean binary cross-entropy with logits over entries where mask != 0
// (mask handles missing labels in multi-task datasets). `targets` in {0,1}.
Tensor BceWithLogits(const Tensor& logits, const Tensor& targets,
                     const Tensor& mask);

namespace internal {

// Adds `flops` to the tensor/matmul_flops counter. For fused kernels
// that run dense layers without calling MatMul (nn/gin_conv.cc), so the
// counter keeps covering every dense product on the tape.
void TallyMatMulFlops(int64_t flops);

}  // namespace internal
}  // namespace sgcl

#endif  // SGCL_TENSOR_OPS_H_
