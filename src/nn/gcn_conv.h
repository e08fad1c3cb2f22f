// Graph Convolutional Network layer (Kipf & Welling, ICLR'17):
//   H' = relu(D̂^{-1/2} (A + I) D̂^{-1/2} X W + b),  D̂ = deg(A + I).
#ifndef SGCL_NN_GCN_CONV_H_
#define SGCL_NN_GCN_CONV_H_

#include <memory>

#include "common/rng.h"
#include "nn/graph_conv.h"
#include "nn/linear.h"

namespace sgcl {

class GcnConv : public GraphConv {
 public:
  GcnConv(int64_t in_dim, int64_t out_dim, Rng* rng);

  Tensor Forward(const Tensor& x, const GraphBatch& batch) const override;
  std::vector<Tensor> Parameters() const override;

 private:
  std::unique_ptr<Linear> linear_;
};

}  // namespace sgcl

#endif  // SGCL_NN_GCN_CONV_H_
