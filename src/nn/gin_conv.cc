#include "nn/gin_conv.h"

#include "tensor/ops.h"

namespace sgcl {
namespace {

void CheckIndexRange(const std::vector<int32_t>& index, int64_t limit) {
  for (int32_t i : index) {
    SGCL_CHECK(i >= 0 && i < limit);
  }
}

// The gradient buffer of `t`, or nullptr when it takes no gradient.
float* GradOrNull(const std::shared_ptr<TensorImpl>& t) {
  if (!t->requires_grad) return nullptr;
  t->EnsureGradAllocated();
  return t->grad.data();
}

}  // namespace

GinConv::GinConv(int64_t in_dim, int64_t out_dim, Rng* rng)
    : mlp_(std::make_unique<Mlp>(std::vector<int64_t>{in_dim, out_dim, out_dim},
                                 rng)) {}

GinLayerParams GinConv::LayerParams() const {
  const Linear& l1 = mlp_->layer(0);
  const Linear& l2 = mlp_->layer(1);
  GinLayerParams p;
  p.w1 = l1.weight().data();
  p.b1 = l1.bias().data();
  p.w2 = l2.weight().data();
  p.b2 = l2.bias().data();
  p.in = l1.in_dim();
  p.hid = l1.out_dim();
  p.out = l2.out_dim();
  return p;
}

Tensor GinConv::Forward(const Tensor& x, const GraphBatch& batch) const {
  const GinLayerParams p = LayerParams();
  const int64_t n = batch.num_nodes;
  SGCL_CHECK_EQ(x.rows(), n);
  SGCL_CHECK_EQ(x.cols(), p.in);
  const int64_t num_edges = static_cast<int64_t>(batch.edge_src.size());
  SGCL_CHECK_EQ(static_cast<int64_t>(batch.edge_dst.size()), num_edges);
  CheckIndexRange(batch.edge_src, n);
  CheckIndexRange(batch.edge_dst, n);
  const Tensor& weights = batch.edge_weights;
  const bool weighted = weights.numel() > 0;
  if (weighted) {
    SGCL_CHECK_EQ(weights.rows(), num_edges);
    SGCL_CHECK_EQ(weights.cols(), 1);
  }
  const EdgeCsr in_edges =
      BuildEdgeCsr(n, batch.edge_dst.data(), batch.edge_src.data(), num_edges,
                   weighted ? weights.data() : nullptr);
  std::vector<float> agg(static_cast<size_t>(n * p.in));
  std::vector<float> hid(static_cast<size_t>(n * p.hid));
  std::vector<float> out(static_cast<size_t>(n * p.out));
  GinLayerForward(p, x.data(), n, in_edges, agg.data(), hid.data(),
                  out.data());
  internal::TallyMatMulFlops(2 * n * (p.in * p.hid + p.hid * p.out));

  const std::vector<Tensor> mlp_params = mlp_->Parameters();  // W1 b1 W2 b2
  std::vector<Tensor> parents = {x};
  if (weighted) parents.push_back(weights);
  parents.insert(parents.end(), mlp_params.begin(), mlp_params.end());
  // The edge lists are kept only when a gradient has to flow through
  // them (to x or to the edge weights).
  const bool x_grad = x.requires_grad();
  const bool w_grad = weighted && weights.requires_grad();
  std::vector<int32_t> src, dst;
  if (x_grad || w_grad) {
    src = batch.edge_src;
    dst = batch.edge_dst;
  }
  return internal::MakeOpOutput(
      {n, p.out}, std::move(out), std::move(parents),
      [p, n, num_edges, x_grad, w_grad, x_impl = x.impl(),
       w_impl = weighted ? weights.impl() : nullptr,
       w1 = mlp_params[0].impl(), b1 = mlp_params[1].impl(),
       w2 = mlp_params[2].impl(), b2 = mlp_params[3].impl(),
       src = std::move(src), dst = std::move(dst), agg = std::move(agg),
       hid = std::move(hid)](TensorImpl& self) {
        // The output ReLU's backward, in place: this closure is the last
        // reader of the node's gradient (DESIGN.md §7 has why this is
        // bit-identical to a separate Relu op).
        for (size_t i = 0; i < self.grad.size(); ++i) {
          if (!(self.data[i] > 0.0f)) self.grad[i] = 0.0f;
        }
        // Weights are read at backward time, as MatMul's closure does.
        GinLayerParams params = p;
        params.w1 = w1->data.data();
        params.w2 = w2->data.data();
        GinLayerGrads grads;
        if (x_grad) grads.x = GradOrNull(x_impl);
        grads.w1 = GradOrNull(w1);
        grads.b1 = GradOrNull(b1);
        grads.w2 = GradOrNull(w2);
        grads.b2 = GradOrNull(b2);
        if (w_grad) grads.edge_weights = GradOrNull(w_impl);
        GinLayerBackward(params, n, x_impl->data.data(), src.data(),
                         dst.data(), num_edges,
                         w_impl != nullptr ? w_impl->data.data() : nullptr,
                         agg.data(), hid.data(), self.grad.data(), grads);
      });
}

std::vector<Tensor> GinConv::Parameters() const { return mlp_->Parameters(); }

}  // namespace sgcl
