// Graph Isomorphism Network layer (Xu et al., ICLR'19), GIN-0 variant:
//   h_i' = MLP(h_i + sum_{j in N(i)} w_ji h_j),
// with w_ji = 1 unless the batch carries edge weights.
//
// Forward runs as one autograd node: the fused row kernel of
// nn/gin_kernel.h (shared with GinInferencePlan) plus a hand-written
// backward, bit-identical to composing the layer and the encoder's ReLU
// after it from tensor ops.
#ifndef SGCL_NN_GIN_CONV_H_
#define SGCL_NN_GIN_CONV_H_

#include <memory>

#include "common/rng.h"
#include "nn/gin_kernel.h"
#include "nn/graph_conv.h"
#include "nn/mlp.h"

namespace sgcl {

class GinConv : public GraphConv {
 public:
  GinConv(int64_t in_dim, int64_t out_dim, Rng* rng);

  // Activated output relu(MLP(agg)) [batch.num_nodes, out_dim]; gradients
  // flow to x, the MLP parameters and batch.edge_weights.
  Tensor Forward(const Tensor& x, const GraphBatch& batch) const override;
  std::vector<Tensor> Parameters() const override;

  const Mlp& mlp() const { return *mlp_; }

  // Raw-pointer view of the current weights.
  GinLayerParams LayerParams() const;

 private:
  std::unique_ptr<Mlp> mlp_;  // {in, out, out}
};

}  // namespace sgcl

#endif  // SGCL_NN_GIN_CONV_H_
