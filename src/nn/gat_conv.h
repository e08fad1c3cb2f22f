// Graph Attention Network layer (Veličković et al., ICLR'18).
//
// For each of two heads: e_ij = LeakyReLU_0.2(a_src · Wh_i + a_dst · Wh_j)
// over the self-loop-augmented edge set, alpha = softmax_j(e_ij), and
// h_i' = sum_j alpha_ij Wh_j. The head outputs are averaged (the "final
// layer" convention), keeping the output dimension equal to out_dim,
// then biased and ReLU'd.
#ifndef SGCL_NN_GAT_CONV_H_
#define SGCL_NN_GAT_CONV_H_

#include <memory>
#include <vector>

#include "common/rng.h"
#include "nn/graph_conv.h"
#include "nn/linear.h"

namespace sgcl {

class GatConv : public GraphConv {
 public:
  GatConv(int64_t in_dim, int64_t out_dim, Rng* rng);

  Tensor Forward(const Tensor& x, const GraphBatch& batch) const override;
  std::vector<Tensor> Parameters() const override;

 private:
  struct Head {
    std::unique_ptr<Linear> w;      // [in, out], no bias
    Tensor attn_src;                // [out, 1]
    Tensor attn_dst;                // [out, 1]
  };
  std::vector<Head> heads_;
  Tensor bias_;  // [1, out]
};

}  // namespace sgcl

#endif  // SGCL_NN_GAT_CONV_H_
