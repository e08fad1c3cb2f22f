// Abstract message-passing layer over a batched edge list.
#ifndef SGCL_NN_GRAPH_CONV_H_
#define SGCL_NN_GRAPH_CONV_H_

#include "graph/graph_batch.h"
#include "nn/module.h"

namespace sgcl {

class GraphConv : public Module {
 public:
  // x [batch.num_nodes, in_dim] -> [batch.num_nodes, out_dim], the
  // layer's output after its ReLU (the encoder stacks layers directly).
  // The layer reads only topology (edge lists, degrees) from `batch`;
  // features come from `x` so layers can be stacked and fed perturbed
  // inputs.
  virtual Tensor Forward(const Tensor& x, const GraphBatch& batch) const = 0;
};

}  // namespace sgcl

#endif  // SGCL_NN_GRAPH_CONV_H_
