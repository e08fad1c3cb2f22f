#include "nn/gat_conv.h"

#include "tensor/graph_ops.h"
#include "tensor/init.h"
#include "tensor/ops.h"

namespace sgcl {
namespace {

constexpr int kNumHeads = 2;
constexpr float kNegativeSlope = 0.2f;

}  // namespace

GatConv::GatConv(int64_t in_dim, int64_t out_dim, Rng* rng)
    : bias_(ZerosParam(1, out_dim)) {
  heads_.reserve(kNumHeads);
  for (int h = 0; h < kNumHeads; ++h) {
    Head head;
    head.w = std::make_unique<Linear>(in_dim, out_dim, rng, /*use_bias=*/false);
    head.attn_src = XavierUniform(out_dim, 1, rng);
    head.attn_dst = XavierUniform(out_dim, 1, rng);
    heads_.push_back(std::move(head));
  }
}

Tensor GatConv::Forward(const Tensor& x, const GraphBatch& batch) const {
  SGCL_CHECK_EQ(x.rows(), batch.num_nodes);
  // Self-loop-augmented edge set so every node attends to itself.
  std::vector<int32_t> src = batch.edge_src;
  std::vector<int32_t> dst = batch.edge_dst;
  src.reserve(src.size() + batch.num_nodes);
  dst.reserve(dst.size() + batch.num_nodes);
  for (int64_t v = 0; v < batch.num_nodes; ++v) {
    src.push_back(static_cast<int32_t>(v));
    dst.push_back(static_cast<int32_t>(v));
  }
  Tensor out;
  for (size_t h = 0; h < heads_.size(); ++h) {
    const Head& head = heads_[h];
    Tensor xw = head.w->Forward(x);                        // [N, out]
    Tensor score_src = MatMul(xw, head.attn_src);          // [N, 1]
    Tensor score_dst = MatMul(xw, head.attn_dst);          // [N, 1]
    Tensor edge_score = LeakyRelu(
        Add(GatherRows(score_src, src), GatherRows(score_dst, dst)),
        kNegativeSlope);                                   // [E+N, 1]
    Tensor alpha = SegmentSoftmax(edge_score, dst, batch.num_nodes);
    Tensor messages = MulBroadcastCol(GatherRows(xw, src), alpha);
    Tensor head_out = ScatterAddRows(messages, dst, batch.num_nodes);
    out = (h == 0) ? head_out : Add(out, head_out);
  }
  out = MulScalar(out, 1.0f / static_cast<float>(heads_.size()));
  return Relu(Add(out, bias_));
}

std::vector<Tensor> GatConv::Parameters() const {
  std::vector<Tensor> params;
  for (const Head& head : heads_) {
    params.push_back(head.w->weight());
    params.push_back(head.attn_src);
    params.push_back(head.attn_dst);
  }
  params.push_back(bias_);
  return params;
}

}  // namespace sgcl
