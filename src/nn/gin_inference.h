// Tape-free fused forward for GIN encoder stacks.
//
// The exact Lipschitz generator (core/lipschitz_generator.h) encodes
// N + 1 masked views per graph and never backpropagates through them,
// and serving never does either, so the autograd tape — output
// allocation, gradient buffers, and backward closures — is pure overhead
// there. A GinInferencePlan snapshots raw weight pointers from a
// GnnEncoder and runs each layer through the same row kernel GinConv's
// autograd node uses (nn/gin_kernel.h), the encoder's ReLU included,
// with flat buffers and no tape.
//
// Determinism: every stage is row-partitioned via ParallelFor and each
// row accumulates in the same order as the tape (neighbor sums in edge
// order, dense layers in ascending-k order), so the output is identical
// for every thread count and matches GnnEncoder::EncodeNodes exactly.
//
// The plan holds non-owning pointers into the encoder's parameter
// tensors: it is invalidated by destroying the encoder (reads the
// current weights, so training steps between builds are fine).
#ifndef SGCL_NN_GIN_INFERENCE_H_
#define SGCL_NN_GIN_INFERENCE_H_

#include <cstdint>
#include <vector>

#include "nn/encoder.h"
#include "nn/gin_kernel.h"

namespace sgcl {

class GinInferencePlan {
 public:
  // Builds a plan when `encoder` is a GIN stack (every conv a GinConv);
  // otherwise returns an invalid plan and callers must fall back to the
  // tape path.
  static GinInferencePlan Build(const GnnEncoder& encoder);

  bool valid() const { return !layers_.empty(); }
  int64_t out_dim() const { return layers_.empty() ? 0 : layers_.back().out; }

  // Final-layer node embeddings for a (possibly block-diagonal) directed
  // edge list: writes an [n, out_dim] row-major matrix into `out`.
  // Matches GnnEncoder::EncodeNodes on the same inputs. Re-entrant: all
  // scratch is local, so concurrent calls (e.g. one per graph) are safe.
  void EncodeNodes(const float* x, int64_t n, const int32_t* edge_src,
                   const int32_t* edge_dst, int64_t num_edges,
                   float* out) const;

  // Convenience overload for a block-diagonal GraphBatch (the serving
  // layer's unit of work): one fused pass over the stacked features and
  // offset-shifted edges. Writes [batch.num_nodes, out_dim] into `out`.
  void EncodeBatch(const GraphBatch& batch, float* out) const;

  const std::vector<GinLayerParams>& layers() const { return layers_; }

 private:
  std::vector<GinLayerParams> layers_;
};

// Batched masked-view kernel for the exact Lipschitz generator (§V):
// squared representation displacements ||H - Ĥ_r||_F^2 (Eq. 15, with row
// r of Ĥ_r zeroed) for single-node masked views of one graph.
//
// An L-layer message-passing encoder changes only the nodes within L
// hops of the masked node r — every other row of Ĥ_r equals the base
// encode bit-for-bit. The kernel therefore encodes the base graph once
// (keeping every layer's activations) and per view recomputes just the
// dirty l-hop ball at layer l, restoring the touched rows afterwards.
// On sparse graphs that replaces L*n re-encoded rows per view with
// |B_1| + ... + |B_L| rows.
class GinMaskedViewKernel {
 public:
  // Encodes the base graph through `plan`. All pointers (plan, features,
  // edge lists) must outlive the kernel.
  GinMaskedViewKernel(const GinInferencePlan& plan, const float* x,
                      int64_t n, const int32_t* edge_src,
                      const int32_t* edge_dst, int64_t num_edges);

  // Base final-layer activations [n, out_dim].
  const float* base() const { return layer_acts_.back().data(); }

  // Writes D_R(G, Ĝ_r)^2 for masked views r in [begin, end) into
  // out[0 .. end-begin). Identical to diffing a full re-encode of each
  // view against base() row by row. Re-entrant (per-call scratch), and
  // independent of how callers partition [0, n) across calls.
  void ViewDisplacementsSq(int64_t begin, int64_t end, double* out) const;

 private:
  const GinInferencePlan* plan_;
  const float* x_;
  int64_t n_;
  // In-edge CSR (ascending edge order) and undirected neighbor CSR.
  EdgeCsr in_edges_;
  std::vector<int64_t> adj_offsets_;
  std::vector<int32_t> adj_;
  std::vector<std::vector<float>> layer_acts_;  // h^1 .. h^L
};

}  // namespace sgcl

#endif  // SGCL_NN_GIN_INFERENCE_H_
