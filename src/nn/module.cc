#include "nn/module.h"

namespace sgcl {

int64_t Module::NumParameters() const {
  int64_t total = 0;
  for (const Tensor& p : Parameters()) total += p.numel();
  return total;
}

void Module::CopyParametersFrom(const Module& other) {
  std::vector<Tensor> dst = Parameters();
  std::vector<Tensor> src = other.Parameters();
  SGCL_CHECK_EQ(dst.size(), src.size());
  for (size_t i = 0; i < dst.size(); ++i) {
    SGCL_CHECK(dst[i].shape() == src[i].shape());
    dst[i].impl()->data = src[i].impl()->data;
  }
}

std::optional<int64_t> CheckedMul(std::optional<int64_t> a,
                                  std::optional<int64_t> b) {
  int64_t result = 0;
  if (!a || !b || __builtin_mul_overflow(*a, *b, &result)) return std::nullopt;
  return result;
}

std::optional<int64_t> CheckedAdd(std::optional<int64_t> a,
                                  std::optional<int64_t> b) {
  int64_t result = 0;
  if (!a || !b || __builtin_add_overflow(*a, *b, &result)) return std::nullopt;
  return result;
}

std::vector<Tensor> ConcatParameters(
    std::initializer_list<const Module*> modules) {
  std::vector<Tensor> all;
  for (const Module* m : modules) {
    SGCL_CHECK(m != nullptr);
    std::vector<Tensor> params = m->Parameters();
    all.insert(all.end(), params.begin(), params.end());
  }
  return all;
}

}  // namespace sgcl
