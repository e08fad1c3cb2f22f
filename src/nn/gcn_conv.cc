#include "nn/gcn_conv.h"

#include <cmath>

#include "tensor/graph_ops.h"
#include "tensor/ops.h"

namespace sgcl {

GcnConv::GcnConv(int64_t in_dim, int64_t out_dim, Rng* rng)
    : linear_(std::make_unique<Linear>(in_dim, out_dim, rng)) {}

Tensor GcnConv::Forward(const Tensor& x, const GraphBatch& batch) const {
  SGCL_CHECK_EQ(x.rows(), batch.num_nodes);
  Tensor xw = linear_->Forward(x);
  // Self-loop-augmented degrees (constants; no grad flows through them).
  std::vector<int64_t> deg = batch.Degrees();
  std::vector<float> inv_self(static_cast<size_t>(batch.num_nodes));
  for (int64_t v = 0; v < batch.num_nodes; ++v) {
    inv_self[v] = 1.0f / static_cast<float>(deg[v] + 1);
  }
  Tensor self_term = MulBroadcastCol(
      xw, Tensor::FromVector({batch.num_nodes, 1}, std::move(inv_self)));
  const int64_t e = static_cast<int64_t>(batch.edge_src.size());
  if (e == 0) return Relu(self_term);
  std::vector<float> coef(static_cast<size_t>(e));
  for (int64_t r = 0; r < e; ++r) {
    coef[r] = 1.0f / std::sqrt(
                         static_cast<float>(deg[batch.edge_src[r]] + 1) *
                         static_cast<float>(deg[batch.edge_dst[r]] + 1));
  }
  Tensor messages =
      MulBroadcastCol(GatherRows(xw, batch.edge_src),
                      Tensor::FromVector({e, 1}, std::move(coef)));
  Tensor neighbor_term =
      ScatterAddRows(messages, batch.edge_dst, batch.num_nodes);
  return Relu(Add(self_term, neighbor_term));
}

std::vector<Tensor> GcnConv::Parameters() const {
  return linear_->Parameters();
}

}  // namespace sgcl
