#include "tensor/init.h"

#include <cmath>
#include <vector>

namespace sgcl {

Tensor XavierUniform(int64_t fan_in, int64_t fan_out, Rng* rng) {
  SGCL_CHECK(rng != nullptr);
  SGCL_CHECK_GT(fan_in, 0);
  SGCL_CHECK_GT(fan_out, 0);
  const double a = std::sqrt(6.0 / static_cast<double>(fan_in + fan_out));
  std::vector<float> values(static_cast<size_t>(fan_in * fan_out));
  for (float& v : values) v = static_cast<float>(rng->Uniform(-a, a));
  return Tensor::FromVector({fan_in, fan_out}, std::move(values),
                            /*requires_grad=*/true);
}

Tensor ZerosParam(int64_t rows, int64_t cols) {
  return Tensor::Zeros({rows, cols}, /*requires_grad=*/true);
}

}  // namespace sgcl
