// GraphSAGE layer with mean aggregator (Hamilton et al., NeurIPS'17):
//   h_i' = relu(W_self h_i + W_neigh mean_{j in N(i)} h_j + b).
#ifndef SGCL_NN_SAGE_CONV_H_
#define SGCL_NN_SAGE_CONV_H_

#include <memory>

#include "common/rng.h"
#include "nn/graph_conv.h"
#include "nn/linear.h"

namespace sgcl {

class SageConv : public GraphConv {
 public:
  SageConv(int64_t in_dim, int64_t out_dim, Rng* rng);

  Tensor Forward(const Tensor& x, const GraphBatch& batch) const override;
  std::vector<Tensor> Parameters() const override;

 private:
  std::unique_ptr<Linear> self_linear_;   // with bias
  std::unique_ptr<Linear> neigh_linear_;  // no bias
};

}  // namespace sgcl

#endif  // SGCL_NN_SAGE_CONV_H_
