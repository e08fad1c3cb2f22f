#include "tensor/optimizer.h"

#include <cmath>

#include "common/string_util.h"

namespace sgcl {

namespace {

// Moment decay rates and the denominator guard.
constexpr float kBeta1 = 0.9f;
constexpr float kBeta2 = 0.999f;
constexpr float kEps = 1e-8f;

}  // namespace

Adam::Adam(std::vector<Tensor> params, float lr)
    : params_(std::move(params)), lr_(lr) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (Tensor& p : params_) {
    SGCL_CHECK(p.requires_grad());
    p.impl()->EnsureGradAllocated();
    m_.emplace_back(p.impl()->data.size(), 0.0f);
    v_.emplace_back(p.impl()->data.size(), 0.0f);
  }
}

void Adam::ZeroGrad() {
  for (Tensor& p : params_) p.ZeroGrad();
}

float Adam::ClipGradNorm(float max_norm) {
  SGCL_CHECK_GT(max_norm, 0.0f);
  double total = 0.0;
  for (Tensor& p : params_) {
    for (float g : p.impl()->grad) total += static_cast<double>(g) * g;
  }
  const float norm = static_cast<float>(std::sqrt(total));
  if (norm > max_norm) {
    const float scale = max_norm / (norm + 1e-12f);
    for (Tensor& p : params_) {
      for (float& g : p.impl()->grad) g *= scale;
    }
  }
  return norm;
}

AdamState Adam::ExportState() const {
  AdamState state;
  state.t = t_;
  state.m = m_;
  state.v = v_;
  return state;
}

Status Adam::ImportState(const AdamState& state) {
  if (state.t < 0) {
    return Status::InvalidArgument(
        StrFormat("Adam state has negative step count %lld",
                  static_cast<long long>(state.t)));
  }
  if (state.m.size() != m_.size() || state.v.size() != v_.size()) {
    return Status::InvalidArgument(
        StrFormat("Adam state covers %zu/%zu moment vectors, optimizer has "
                  "%zu parameters",
                  state.m.size(), state.v.size(), m_.size()));
  }
  for (size_t k = 0; k < m_.size(); ++k) {
    if (state.m[k].size() != m_[k].size() ||
        state.v[k].size() != v_[k].size()) {
      return Status::InvalidArgument(
          StrFormat("Adam state moment %zu has %zu/%zu entries, parameter "
                    "has %zu",
                    k, state.m[k].size(), state.v[k].size(), m_[k].size()));
    }
  }
  t_ = state.t;
  m_ = state.m;
  v_ = state.v;
  return Status::OK();
}

void Adam::Step() {
  ++t_;
  const float bc1 = 1.0f - std::pow(kBeta1, static_cast<float>(t_));
  const float bc2 = 1.0f - std::pow(kBeta2, static_cast<float>(t_));
  for (size_t k = 0; k < params_.size(); ++k) {
    auto& impl = *params_[k].impl();
    for (size_t i = 0; i < impl.data.size(); ++i) {
      const float g = impl.grad[i];
      m_[k][i] = kBeta1 * m_[k][i] + (1.0f - kBeta1) * g;
      v_[k][i] = kBeta2 * v_[k][i] + (1.0f - kBeta2) * g * g;
      const float mhat = m_[k][i] / bc1;
      const float vhat = v_[k][i] / bc2;
      impl.data[i] -= lr_ * mhat / (std::sqrt(vhat) + kEps);
    }
  }
}

}  // namespace sgcl
