#include "nn/sage_conv.h"

#include "tensor/graph_ops.h"
#include "tensor/ops.h"

namespace sgcl {

SageConv::SageConv(int64_t in_dim, int64_t out_dim, Rng* rng)
    : self_linear_(std::make_unique<Linear>(in_dim, out_dim, rng)),
      neigh_linear_(
          std::make_unique<Linear>(in_dim, out_dim, rng, /*use_bias=*/false)) {}

Tensor SageConv::Forward(const Tensor& x, const GraphBatch& batch) const {
  SGCL_CHECK_EQ(x.rows(), batch.num_nodes);
  Tensor self_term = self_linear_->Forward(x);
  if (batch.edge_src.empty()) return Relu(self_term);
  Tensor neighbor_sum = ScatterAddRows(GatherRows(x, batch.edge_src),
                                       batch.edge_dst, batch.num_nodes);
  // Mean over neighbors; isolated nodes keep a zero neighbor term.
  std::vector<int64_t> deg = batch.Degrees();
  std::vector<float> inv_deg(static_cast<size_t>(batch.num_nodes));
  for (int64_t v = 0; v < batch.num_nodes; ++v) {
    inv_deg[v] = deg[v] > 0 ? 1.0f / static_cast<float>(deg[v]) : 0.0f;
  }
  Tensor neighbor_mean = MulBroadcastCol(
      neighbor_sum,
      Tensor::FromVector({batch.num_nodes, 1}, std::move(inv_deg)));
  return Relu(Add(self_term, neigh_linear_->Forward(neighbor_mean)));
}

std::vector<Tensor> SageConv::Parameters() const {
  std::vector<Tensor> params = self_linear_->Parameters();
  auto np = neigh_linear_->Parameters();
  params.insert(params.end(), np.begin(), np.end());
  return params;
}

}  // namespace sgcl
