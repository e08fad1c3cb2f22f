// Configurable multi-layer GNN encoder (the paper's f_q / f_k towers).
#ifndef SGCL_NN_ENCODER_H_
#define SGCL_NN_ENCODER_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "graph/graph_batch.h"
#include "nn/graph_conv.h"
#include "nn/pooling.h"

namespace sgcl {

enum class GnnArch { kGin, kGcn, kGat, kSage };

const char* GnnArchToString(GnnArch arch);

struct EncoderConfig {
  GnnArch arch = GnnArch::kGin;
  int64_t in_dim = 0;
  int64_t hidden_dim = 32;
  int num_layers = 3;       // paper: 3 for TU, 5 for transfer
  PoolingKind pooling = PoolingKind::kSum;
};

class GnnEncoder : public Module {
 public:
  GnnEncoder(const EncoderConfig& config, Rng* rng);

  // NumParameters() of an encoder built from `config`, computed without
  // building it; nullopt when the count overflows int64_t.
  static std::optional<int64_t> NumParametersFor(const EncoderConfig& config);

  // Final-layer node embeddings [N, hidden_dim]. Every layer ends in a
  // ReLU (GraphConv::Forward returns its activated output).
  Tensor EncodeNodes(const Tensor& x, const GraphBatch& batch) const;

  // Graph embeddings [num_graphs, hidden_dim]: pooled node embeddings.
  // When `node_weights` (shape [N,1], constants) is provided, node
  // embeddings are reweighted before pooling — used by the paper's Eq. 21
  // where K_V scores scale the anchor representation.
  Tensor EncodeGraphs(const GraphBatch& batch,
                      const Tensor* node_weights = nullptr) const;

  std::vector<Tensor> Parameters() const override;

  const EncoderConfig& config() const { return config_; }

  // Layer introspection for tape-free inference kernels
  // (nn/gin_inference.h): conv layer l.
  const GraphConv& conv(int64_t l) const { return *layers_[l]; }

 private:
  EncoderConfig config_;
  std::vector<std::unique_ptr<GraphConv>> layers_;
};

}  // namespace sgcl

#endif  // SGCL_NN_ENCODER_H_
