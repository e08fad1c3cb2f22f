// Row kernels of one GIN layer, shared by training and inference.
//
// GinConv::Forward (the autograd node every training pass runs) and
// GinInferencePlan / GinMaskedViewKernel (tape-free encoding) call the
// same forward kernel, so the two can never drift apart numerically.
// The hand-written backward reproduces, per output element, the
// accumulation order of the per-op tape composition it replaced
// (GatherRows, MulBroadcastCol, ScatterAddRows, MulScalar, Add, MatMul,
// bias Add, Relu, MatMul, bias Add, and the encoder's Relu); DESIGN.md
// §7 has the argument.
//
// Determinism: every loop is a row partition over the shared pool (node
// rows, weight rows, edges) and each output element accumulates
// privately in a fixed order, so results are identical for every thread
// count. The dense products run in register tiles of 4 rows x 32
// columns, which change how many elements advance together, not the
// order in which any one element accumulates. The library builds with
// -ffp-contract=off, so the ISA-dispatched clones round exactly like the
// baseline build.
#ifndef SGCL_NN_GIN_KERNEL_H_
#define SGCL_NN_GIN_KERNEL_H_

#include <cstdint>
#include <vector>

namespace sgcl {

// Raw-pointer view of one GIN layer's MLP weights.
struct GinLayerParams {
  const float* w1;  // [in, hid]
  const float* b1;  // [1, hid]
  const float* w2;  // [hid, out]
  const float* b2;  // [1, out]
  int64_t in, hid, out;
};

// Edges grouped by one endpoint: row v lists the other endpoints of its
// edges in ascending edge order, so a row's neighbor sum accumulates in
// exactly the order a scatter over the edge list would use.
struct EdgeCsr {
  std::vector<int64_t> offsets;  // [n + 1]
  std::vector<int32_t> nbrs;     // other endpoint per slot
  std::vector<float> weights;    // per-slot edge weight; empty = unweighted
};

// Groups edge e under row `by[e]` with neighbor `other[e]` (and weight
// weights[e] when `weights` is non-null). In-edges: by = dst, other = src.
EdgeCsr BuildEdgeCsr(int64_t n, const int32_t* by, const int32_t* other,
                     int64_t num_edges, const float* weights);

// One GIN layer over all n rows, with the encoder's ReLU after it:
//   agg = x + sum_{e: dst(e) = v} w_e x_src(e)
//   hid = relu(agg W1 + b1)
//   out = relu(hid W2 + b2)
// Writes agg [n, in], hid [n, hid] and out [n, out]; `x` is [n, in].
void GinLayerForward(const GinLayerParams& p, const float* x, int64_t n,
                     const EdgeCsr& in_edges, float* agg, float* hid,
                     float* out);

// Recomputes the listed rows of one layer under single-node masked view
// `masked` (its in-edges are skipped, and the masked row keeps no edges),
// with the same arithmetic as GinLayerForward but no materialized view
// edge list. `agg` and `hid` are single-row scratch.
void GinDirtyRows(const GinLayerParams& p, const float* in,
                  const EdgeCsr& in_edges, int64_t masked,
                  const int32_t* dirty, int64_t num_dirty, float* agg,
                  float* hid, float* dst);

// Gradient buffers for GinLayerBackward, accumulated into (+=). A null
// pointer skips that gradient.
struct GinLayerGrads {
  float* x = nullptr;             // [n, in]
  float* w1 = nullptr;            // [in, hid]
  float* b1 = nullptr;            // [1, hid]
  float* w2 = nullptr;            // [hid, out]
  float* b2 = nullptr;            // [1, out]
  float* edge_weights = nullptr;  // [num_edges, 1]
};

// Backward of a GinLayerForward call, from `dout` [n, out], the gradient
// of the pre-activation output hid W2 + b2: the caller has already
// zeroed the output gradient where out is not > 0 (the output ReLU).
//   dPre = (dout W2^T) masked by hid > 0      dW2 += hid^T dout
//   dAgg = dPre W1^T                          dW1 += agg^T dPre
//   dx_u += sum_{e: src(e) = u} w_e dAgg_dst(e) + dAgg_u
//   dw_e += dAgg_dst(e) . x_src(e)            db  += column sums
// `edge_weights` is null for an unweighted layer.
void GinLayerBackward(const GinLayerParams& p, int64_t n, const float* x,
                      const int32_t* edge_src, const int32_t* edge_dst,
                      int64_t num_edges, const float* edge_weights,
                      const float* agg, const float* hid, const float* dout,
                      const GinLayerGrads& grads);

}  // namespace sgcl

#endif  // SGCL_NN_GIN_KERNEL_H_
