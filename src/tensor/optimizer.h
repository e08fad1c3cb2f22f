// The Adam optimizer over a list of trainable tensors.
#ifndef SGCL_TENSOR_OPTIMIZER_H_
#define SGCL_TENSOR_OPTIMIZER_H_

#include <vector>

#include "common/status.h"
#include "tensor/tensor.h"

namespace sgcl {

// Serializable Adam state: step counter plus first/second moments, one
// vector per parameter in the optimizer's parameter order. Checkpointing
// must capture this — resuming Adam with zeroed moments changes every
// subsequent update, which breaks bitwise-reproducible resume.
struct AdamState {
  int64_t t = 0;
  std::vector<std::vector<float>> m;
  std::vector<std::vector<float>> v;
};

// Adam (Kingma & Ba) with bias correction and the usual constants
// (beta1 0.9, beta2 0.999, eps 1e-8). Owns the parameter handles; not
// copyable: its moments are tied to the exact parameter tensors it was
// built with.
class Adam {
 public:
  Adam(std::vector<Tensor> params, float lr);

  Adam(const Adam&) = delete;
  Adam& operator=(const Adam&) = delete;

  // Applies one update using the gradients currently stored in the params.
  void Step();

  // Clears all parameter gradients.
  void ZeroGrad();

  // Rescales gradients so their global L2 norm is at most max_norm.
  // Returns the pre-clip norm.
  float ClipGradNorm(float max_norm);

  // Copy of the full optimizer state for checkpointing.
  AdamState ExportState() const;
  // Replaces the state. InvalidArgument when `state` does not match this
  // optimizer's parameter count or per-parameter sizes; on failure the
  // current state is left untouched (no partial application).
  Status ImportState(const AdamState& state);

 private:
  std::vector<Tensor> params_;
  float lr_;
  int64_t t_ = 0;
  std::vector<std::vector<float>> m_;
  std::vector<std::vector<float>> v_;
};

}  // namespace sgcl

#endif  // SGCL_TENSOR_OPTIMIZER_H_
