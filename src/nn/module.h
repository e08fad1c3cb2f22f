// Base interface for trainable components.
#ifndef SGCL_NN_MODULE_H_
#define SGCL_NN_MODULE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "tensor/tensor.h"

namespace sgcl {

// A module owns trainable tensors and exposes them for optimizers,
// checkpoint copying, and weight perturbation (SimGRACE).
class Module {
 public:
  virtual ~Module() = default;

  // Handles (shared storage) to every trainable tensor in this module.
  virtual std::vector<Tensor> Parameters() const = 0;

  // Total trainable scalar count.
  int64_t NumParameters() const;

  // Copies parameter values from `other` (shapes must match pairwise).
  void CopyParametersFrom(const Module& other);
};

// a * b and a + b for parameter counts computed from untrusted sizes (a
// model file's config section): nullopt when an operand is nullopt or
// the result overflows int64_t.
std::optional<int64_t> CheckedMul(std::optional<int64_t> a,
                                  std::optional<int64_t> b);
std::optional<int64_t> CheckedAdd(std::optional<int64_t> a,
                                  std::optional<int64_t> b);

// Concatenates the parameter lists of several modules.
std::vector<Tensor> ConcatParameters(
    std::initializer_list<const Module*> modules);

}  // namespace sgcl

#endif  // SGCL_NN_MODULE_H_
