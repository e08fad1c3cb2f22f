#include "nn/encoder.h"

#include "nn/gat_conv.h"
#include "nn/gcn_conv.h"
#include "nn/gin_conv.h"
#include "nn/sage_conv.h"
#include "tensor/ops.h"

namespace sgcl {

const char* GnnArchToString(GnnArch arch) {
  switch (arch) {
    case GnnArch::kGin:
      return "GIN";
    case GnnArch::kGcn:
      return "GCN";
    case GnnArch::kGat:
      return "GAT";
    case GnnArch::kSage:
      return "GraphSAGE";
  }
  return "unknown";
}

namespace {

std::unique_ptr<GraphConv> MakeConv(GnnArch arch, int64_t in_dim,
                                    int64_t out_dim, Rng* rng) {
  switch (arch) {
    case GnnArch::kGin:
      return std::make_unique<GinConv>(in_dim, out_dim, rng);
    case GnnArch::kGcn:
      return std::make_unique<GcnConv>(in_dim, out_dim, rng);
    case GnnArch::kGat:
      return std::make_unique<GatConv>(in_dim, out_dim, rng);
    case GnnArch::kSage:
      return std::make_unique<SageConv>(in_dim, out_dim, rng);
  }
  SGCL_CHECK(false);
  return nullptr;
}

}  // namespace

GnnEncoder::GnnEncoder(const EncoderConfig& config, Rng* rng)
    : config_(config) {
  SGCL_CHECK_GT(config.in_dim, 0);
  SGCL_CHECK_GT(config.hidden_dim, 0);
  SGCL_CHECK_GT(config.num_layers, 0);
  for (int l = 0; l < config.num_layers; ++l) {
    const int64_t in = (l == 0) ? config.in_dim : config.hidden_dim;
    layers_.push_back(MakeConv(config.arch, in, config.hidden_dim, rng));
  }
}

std::optional<int64_t> GnnEncoder::NumParametersFor(
    const EncoderConfig& config) {
  const int64_t out = config.hidden_dim;
  const auto conv = [&](int64_t in) -> std::optional<int64_t> {
    const std::optional<int64_t> in_out = CheckedMul(in, out);
    switch (config.arch) {
      case GnnArch::kGin:  // Mlp {in, out, out}: W1, b1, W2, b2
        return CheckedAdd(CheckedAdd(in_out, CheckedMul(out, out)),
                          CheckedMul(2, out));
      case GnnArch::kGcn:  // W, b
        return CheckedAdd(in_out, out);
      case GnnArch::kGat:  // two heads of W, a_src, a_dst; then b
        return CheckedAdd(CheckedMul(2, CheckedAdd(in_out, CheckedMul(2, out))),
                          out);
      case GnnArch::kSage:  // W_self, b, W_neigh
        return CheckedAdd(CheckedMul(2, in_out), out);
    }
    return std::nullopt;
  };
  return CheckedAdd(conv(config.in_dim),
                    CheckedMul(config.num_layers - 1, conv(out)));
}

Tensor GnnEncoder::EncodeNodes(const Tensor& x, const GraphBatch& batch) const {
  Tensor h = x;
  for (size_t l = 0; l < layers_.size(); ++l) {
    h = layers_[l]->Forward(h, batch);
  }
  return h;
}

Tensor GnnEncoder::EncodeGraphs(const GraphBatch& batch,
                                const Tensor* node_weights) const {
  Tensor nodes = EncodeNodes(batch.features, batch);
  if (node_weights != nullptr) {
    SGCL_CHECK_EQ(node_weights->rows(), batch.num_nodes);
    nodes = MulBroadcastCol(nodes, *node_weights);
  }
  return Pool(nodes, batch, config_.pooling);
}

std::vector<Tensor> GnnEncoder::Parameters() const {
  std::vector<Tensor> params;
  for (const auto& layer : layers_) {
    auto p = layer->Parameters();
    params.insert(params.end(), p.begin(), p.end());
  }
  return params;
}

}  // namespace sgcl
