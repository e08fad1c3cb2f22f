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

Tensor GnnEncoder::EncodeNodes(const Tensor& x, const GraphBatch& batch) const {
  Tensor h = x;
  for (size_t l = 0; l < layers_.size(); ++l) {
    h = Relu(layers_[l]->Forward(h, batch));
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
