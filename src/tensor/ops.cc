#include "tensor/ops.h"

#include <cmath>

#include "common/metrics.h"
#include "common/parallel.h"

namespace sgcl {
namespace {

using internal::MakeOpOutput;

// Kernel dispatch tallies (always-on; one relaxed atomic per call — noise
// next to the O(mkn) kernels they count).
void TallyMatMul(const char* which, int64_t flops) {
  static Counter* const matmul =
      MetricsRegistry::Global().GetCounter("tensor/matmul_calls");
  static Counter* const matmul_tb =
      MetricsRegistry::Global().GetCounter("tensor/matmul_transb_calls");
  (which[0] == 't' ? matmul_tb : matmul)->Increment();
  internal::TallyMatMulFlops(flops);
}

// Accumulates `delta` into `t`'s grad if it participates in autograd.
void AccumulateGrad(const std::shared_ptr<TensorImpl>& t,
                    const std::vector<float>& delta) {
  if (!t->requires_grad) return;
  t->EnsureGradAllocated();
  SGCL_DCHECK(t->grad.size() == delta.size());
  for (size_t i = 0; i < delta.size(); ++i) t->grad[i] += delta[i];
}

void CheckSameShape(const Tensor& a, const Tensor& b) {
  SGCL_CHECK(a.shape() == b.shape());
}

// Generic unary op: y = f(x), dx = dy * dfdx where dfdx is precomputed
// from the forward values.
Tensor UnaryOp(const Tensor& a, std::vector<float> out,
               std::vector<float> dfdx) {
  auto a_impl = a.impl();
  return MakeOpOutput(
      a.shape(), std::move(out), {a},
      [a_impl, dfdx = std::move(dfdx)](TensorImpl& self) {
        if (!a_impl->requires_grad) return;
        a_impl->EnsureGradAllocated();
        for (size_t i = 0; i < self.grad.size(); ++i) {
          a_impl->grad[i] += self.grad[i] * dfdx[i];
        }
      });
}

}  // namespace

namespace internal {

void TallyMatMulFlops(int64_t flops) {
  static Counter* const flops_counter =
      MetricsRegistry::Global().GetCounter("tensor/matmul_flops");
  flops_counter->Increment(flops);
}

}  // namespace internal

Tensor MatMul(const Tensor& a, const Tensor& b) {
  SGCL_CHECK_EQ(a.dim(), 2);
  SGCL_CHECK_EQ(b.dim(), 2);
  const int64_t m = a.rows(), k = a.cols(), n = b.cols();
  SGCL_CHECK_EQ(k, b.rows());
  TallyMatMul("matmul", 2 * m * k * n);
  std::vector<float> out(static_cast<size_t>(m * n), 0.0f);
  const float* ad = a.data();
  const float* bd = b.data();
  // Row-partitioned: each chunk owns disjoint output rows, so results are
  // identical for every thread count.
  ParallelFor(0, m, RowGrain(k * n), [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) {
      for (int64_t p = 0; p < k; ++p) {
        const float av = ad[i * k + p];
        if (av == 0.0f) continue;
        const float* brow = bd + p * n;
        float* orow = out.data() + i * n;
        for (int64_t j = 0; j < n; ++j) orow[j] += av * brow[j];
      }
    }
  });
  auto a_impl = a.impl();
  auto b_impl = b.impl();
  return MakeOpOutput(
      {m, n}, std::move(out), {a, b},
      [a_impl, b_impl, m, k, n](TensorImpl& self) {
        const float* g = self.grad.data();
        if (a_impl->requires_grad) {
          a_impl->EnsureGradAllocated();
          // dA = dC * B^T; chunks own disjoint rows of dA.
          const float* bd = b_impl->data.data();
          float* agrad = a_impl->grad.data();
          ParallelFor(0, m, RowGrain(k * n), [&](int64_t i0, int64_t i1) {
            for (int64_t i = i0; i < i1; ++i) {
              for (int64_t p = 0; p < k; ++p) {
                float acc = 0.0f;
                const float* grow = g + i * n;
                const float* brow = bd + p * n;
                for (int64_t j = 0; j < n; ++j) acc += grow[j] * brow[j];
                agrad[i * k + p] += acc;
              }
            }
          });
        }
        if (b_impl->requires_grad) {
          b_impl->EnsureGradAllocated();
          // dB = A^T * dC; chunks own disjoint rows p of dB, and each
          // accumulates over i in ascending order — the same order as the
          // sequential i-outer loop, so sums are bitwise-identical.
          const float* ad = a_impl->data.data();
          float* bgrad = b_impl->grad.data();
          ParallelFor(0, k, RowGrain(m * n), [&](int64_t p0, int64_t p1) {
            for (int64_t p = p0; p < p1; ++p) {
              float* brow = bgrad + p * n;
              for (int64_t i = 0; i < m; ++i) {
                const float av = ad[i * k + p];
                if (av == 0.0f) continue;
                const float* grow = g + i * n;
                for (int64_t j = 0; j < n; ++j) brow[j] += av * grow[j];
              }
            }
          });
        }
      });
}

Tensor MatMulTransB(const Tensor& a, const Tensor& b) {
  SGCL_CHECK_EQ(a.dim(), 2);
  SGCL_CHECK_EQ(b.dim(), 2);
  const int64_t m = a.rows(), k = a.cols(), n = b.rows();
  SGCL_CHECK_EQ(k, b.cols());
  TallyMatMul("transb", 2 * m * k * n);
  std::vector<float> out(static_cast<size_t>(m * n), 0.0f);
  const float* ad = a.data();
  const float* bd = b.data();
  // Row-partitioned over output rows (see MatMul).
  ParallelFor(0, m, RowGrain(k * n), [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) {
      for (int64_t j = 0; j < n; ++j) {
        float acc = 0.0f;
        const float* arow = ad + i * k;
        const float* brow = bd + j * k;
        for (int64_t p = 0; p < k; ++p) acc += arow[p] * brow[p];
        out[i * n + j] = acc;
      }
    }
  });
  auto a_impl = a.impl();
  auto b_impl = b.impl();
  return MakeOpOutput(
      {m, n}, std::move(out), {a, b},
      [a_impl, b_impl, m, k, n](TensorImpl& self) {
        const float* g = self.grad.data();
        if (a_impl->requires_grad) {
          a_impl->EnsureGradAllocated();
          // dA = dC * B; chunks own disjoint rows of dA.
          const float* bd = b_impl->data.data();
          float* agrad = a_impl->grad.data();
          ParallelFor(0, m, RowGrain(k * n), [&](int64_t i0, int64_t i1) {
            for (int64_t i = i0; i < i1; ++i) {
              for (int64_t j = 0; j < n; ++j) {
                const float gv = g[i * n + j];
                if (gv == 0.0f) continue;
                const float* brow = bd + j * k;
                float* arow = agrad + i * k;
                for (int64_t p = 0; p < k; ++p) arow[p] += gv * brow[p];
              }
            }
          });
        }
        if (b_impl->requires_grad) {
          b_impl->EnsureGradAllocated();
          // dB = dC^T * A; chunks own disjoint rows j of dB, each summing
          // over i ascending — the sequential accumulation order.
          const float* ad = a_impl->data.data();
          float* bgrad = b_impl->grad.data();
          ParallelFor(0, n, RowGrain(m * k), [&](int64_t j0, int64_t j1) {
            for (int64_t j = j0; j < j1; ++j) {
              float* brow = bgrad + j * k;
              for (int64_t i = 0; i < m; ++i) {
                const float gv = g[i * n + j];
                if (gv == 0.0f) continue;
                const float* arow = ad + i * k;
                for (int64_t p = 0; p < k; ++p) brow[p] += gv * arow[p];
              }
            }
          });
        }
      });
}

Tensor Transpose(const Tensor& a) {
  SGCL_CHECK_EQ(a.dim(), 2);
  const int64_t m = a.rows(), n = a.cols();
  std::vector<float> out(static_cast<size_t>(m * n));
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) out[j * m + i] = a.data()[i * n + j];
  }
  auto a_impl = a.impl();
  return MakeOpOutput({n, m}, std::move(out), {a},
                      [a_impl, m, n](TensorImpl& self) {
                        if (!a_impl->requires_grad) return;
                        a_impl->EnsureGradAllocated();
                        for (int64_t i = 0; i < m; ++i) {
                          for (int64_t j = 0; j < n; ++j) {
                            a_impl->grad[i * n + j] += self.grad[j * m + i];
                          }
                        }
                      });
}

Tensor Add(const Tensor& a, const Tensor& b) {
  if (a.shape() == b.shape()) {
    std::vector<float> out(a.values());
    for (size_t i = 0; i < out.size(); ++i) out[i] += b.data()[i];
    auto a_impl = a.impl();
    auto b_impl = b.impl();
    return MakeOpOutput(a.shape(), std::move(out), {a, b},
                        [a_impl, b_impl](TensorImpl& self) {
                          AccumulateGrad(a_impl, self.grad);
                          AccumulateGrad(b_impl, self.grad);
                        });
  }
  // Row broadcast: a [m,n] + b [1,n].
  SGCL_CHECK_EQ(a.dim(), 2);
  SGCL_CHECK_EQ(b.dim(), 2);
  SGCL_CHECK_EQ(b.rows(), 1);
  SGCL_CHECK_EQ(a.cols(), b.cols());
  const int64_t m = a.rows(), n = a.cols();
  std::vector<float> out(a.values());
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) out[i * n + j] += b.data()[j];
  }
  auto a_impl = a.impl();
  auto b_impl = b.impl();
  return MakeOpOutput(
      a.shape(), std::move(out), {a, b},
      [a_impl, b_impl, m, n](TensorImpl& self) {
        AccumulateGrad(a_impl, self.grad);
        if (b_impl->requires_grad) {
          b_impl->EnsureGradAllocated();
          for (int64_t i = 0; i < m; ++i) {
            for (int64_t j = 0; j < n; ++j) {
              b_impl->grad[j] += self.grad[i * n + j];
            }
          }
        }
      });
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b);
  std::vector<float> out(a.values());
  for (size_t i = 0; i < out.size(); ++i) out[i] -= b.data()[i];
  auto a_impl = a.impl();
  auto b_impl = b.impl();
  return MakeOpOutput(a.shape(), std::move(out), {a, b},
                      [a_impl, b_impl](TensorImpl& self) {
                        AccumulateGrad(a_impl, self.grad);
                        if (b_impl->requires_grad) {
                          b_impl->EnsureGradAllocated();
                          for (size_t i = 0; i < self.grad.size(); ++i) {
                            b_impl->grad[i] -= self.grad[i];
                          }
                        }
                      });
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b);
  std::vector<float> out(a.values());
  for (size_t i = 0; i < out.size(); ++i) out[i] *= b.data()[i];
  auto a_impl = a.impl();
  auto b_impl = b.impl();
  return MakeOpOutput(
      a.shape(), std::move(out), {a, b},
      [a_impl, b_impl](TensorImpl& self) {
        if (a_impl->requires_grad) {
          a_impl->EnsureGradAllocated();
          for (size_t i = 0; i < self.grad.size(); ++i) {
            a_impl->grad[i] += self.grad[i] * b_impl->data[i];
          }
        }
        if (b_impl->requires_grad) {
          b_impl->EnsureGradAllocated();
          for (size_t i = 0; i < self.grad.size(); ++i) {
            b_impl->grad[i] += self.grad[i] * a_impl->data[i];
          }
        }
      });
}

Tensor MulBroadcastCol(const Tensor& x, const Tensor& c) {
  SGCL_CHECK_EQ(x.dim(), 2);
  SGCL_CHECK_EQ(c.dim(), 2);
  SGCL_CHECK_EQ(c.cols(), 1);
  SGCL_CHECK_EQ(x.rows(), c.rows());
  const int64_t m = x.rows(), n = x.cols();
  std::vector<float> out(x.values());
  for (int64_t i = 0; i < m; ++i) {
    const float cv = c.data()[i];
    for (int64_t j = 0; j < n; ++j) out[i * n + j] *= cv;
  }
  auto x_impl = x.impl();
  auto c_impl = c.impl();
  return MakeOpOutput(
      x.shape(), std::move(out), {x, c},
      [x_impl, c_impl, m, n](TensorImpl& self) {
        if (x_impl->requires_grad) {
          x_impl->EnsureGradAllocated();
          for (int64_t i = 0; i < m; ++i) {
            const float cv = c_impl->data[i];
            for (int64_t j = 0; j < n; ++j) {
              x_impl->grad[i * n + j] += self.grad[i * n + j] * cv;
            }
          }
        }
        if (c_impl->requires_grad) {
          c_impl->EnsureGradAllocated();
          for (int64_t i = 0; i < m; ++i) {
            float acc = 0.0f;
            for (int64_t j = 0; j < n; ++j) {
              acc += self.grad[i * n + j] * x_impl->data[i * n + j];
            }
            c_impl->grad[i] += acc;
          }
        }
      });
}

Tensor AddScalar(const Tensor& a, float s) {
  std::vector<float> out(a.values());
  for (float& v : out) v += s;
  auto a_impl = a.impl();
  return MakeOpOutput(a.shape(), std::move(out), {a},
                      [a_impl](TensorImpl& self) {
                        AccumulateGrad(a_impl, self.grad);
                      });
}

Tensor MulScalar(const Tensor& a, float s) {
  std::vector<float> out(a.values());
  for (float& v : out) v *= s;
  auto a_impl = a.impl();
  return MakeOpOutput(a.shape(), std::move(out), {a},
                      [a_impl, s](TensorImpl& self) {
                        if (!a_impl->requires_grad) return;
                        a_impl->EnsureGradAllocated();
                        for (size_t i = 0; i < self.grad.size(); ++i) {
                          a_impl->grad[i] += self.grad[i] * s;
                        }
                      });
}

Tensor Neg(const Tensor& a) { return MulScalar(a, -1.0f); }

Tensor Relu(const Tensor& a) {
  std::vector<float> out(a.values());
  std::vector<float> dfdx(out.size());
  for (size_t i = 0; i < out.size(); ++i) {
    if (out[i] > 0.0f) {
      dfdx[i] = 1.0f;
    } else {
      out[i] = 0.0f;
      dfdx[i] = 0.0f;
    }
  }
  return UnaryOp(a, std::move(out), std::move(dfdx));
}

Tensor LeakyRelu(const Tensor& a, float negative_slope) {
  std::vector<float> out(a.values());
  std::vector<float> dfdx(out.size());
  for (size_t i = 0; i < out.size(); ++i) {
    if (out[i] > 0.0f) {
      dfdx[i] = 1.0f;
    } else {
      out[i] *= negative_slope;
      dfdx[i] = negative_slope;
    }
  }
  return UnaryOp(a, std::move(out), std::move(dfdx));
}

Tensor Sigmoid(const Tensor& a) {
  std::vector<float> out(a.values());
  std::vector<float> dfdx(out.size());
  for (size_t i = 0; i < out.size(); ++i) {
    const float s = 1.0f / (1.0f + std::exp(-out[i]));
    out[i] = s;
    dfdx[i] = s * (1.0f - s);
  }
  return UnaryOp(a, std::move(out), std::move(dfdx));
}

Tensor Exp(const Tensor& a) {
  std::vector<float> out(a.values());
  std::vector<float> dfdx(out.size());
  for (size_t i = 0; i < out.size(); ++i) {
    const float e = std::exp(out[i]);
    out[i] = e;
    dfdx[i] = e;
  }
  return UnaryOp(a, std::move(out), std::move(dfdx));
}

Tensor Log(const Tensor& a, float eps) {
  std::vector<float> out(a.values());
  std::vector<float> dfdx(out.size());
  for (size_t i = 0; i < out.size(); ++i) {
    const float x = out[i] > eps ? out[i] : eps;
    out[i] = std::log(x);
    dfdx[i] = 1.0f / x;
  }
  return UnaryOp(a, std::move(out), std::move(dfdx));
}

Tensor Softplus(const Tensor& a) {
  std::vector<float> out(a.values());
  std::vector<float> dfdx(out.size());
  for (size_t i = 0; i < out.size(); ++i) {
    const float x = out[i];
    out[i] = std::max(x, 0.0f) + std::log1p(std::exp(-std::fabs(x)));
    dfdx[i] = 1.0f / (1.0f + std::exp(-x));  // sigmoid(x)
  }
  return UnaryOp(a, std::move(out), std::move(dfdx));
}

Tensor Sum(const Tensor& a) {
  double acc = 0.0;
  for (float v : a.values()) acc += v;
  auto a_impl = a.impl();
  return MakeOpOutput({1, 1}, {static_cast<float>(acc)}, {a},
                      [a_impl](TensorImpl& self) {
                        if (!a_impl->requires_grad) return;
                        a_impl->EnsureGradAllocated();
                        const float g = self.grad[0];
                        for (float& gi : a_impl->grad) gi += g;
                      });
}

Tensor Mean(const Tensor& a) {
  SGCL_CHECK_GT(a.numel(), 0);
  return MulScalar(Sum(a), 1.0f / static_cast<float>(a.numel()));
}

Tensor SumSquares(const Tensor& a) {
  double acc = 0.0;
  for (float v : a.values()) acc += static_cast<double>(v) * v;
  auto a_impl = a.impl();
  return MakeOpOutput({1, 1}, {static_cast<float>(acc)}, {a},
                      [a_impl](TensorImpl& self) {
                        if (!a_impl->requires_grad) return;
                        a_impl->EnsureGradAllocated();
                        const float g = self.grad[0];
                        for (size_t i = 0; i < a_impl->data.size(); ++i) {
                          a_impl->grad[i] += 2.0f * g * a_impl->data[i];
                        }
                      });
}

Tensor FrobeniusNorm(const Tensor& a, float eps) {
  double acc = eps;
  for (float v : a.values()) acc += static_cast<double>(v) * v;
  const float norm = static_cast<float>(std::sqrt(acc));
  auto a_impl = a.impl();
  return MakeOpOutput({1, 1}, {norm}, {a},
                      [a_impl, norm](TensorImpl& self) {
                        if (!a_impl->requires_grad) return;
                        a_impl->EnsureGradAllocated();
                        const float g = self.grad[0] / norm;
                        for (size_t i = 0; i < a_impl->data.size(); ++i) {
                          a_impl->grad[i] += g * a_impl->data[i];
                        }
                      });
}

Tensor RowSum(const Tensor& a) {
  SGCL_CHECK_EQ(a.dim(), 2);
  const int64_t m = a.rows(), n = a.cols();
  std::vector<float> out(static_cast<size_t>(m), 0.0f);
  for (int64_t i = 0; i < m; ++i) {
    float acc = 0.0f;
    for (int64_t j = 0; j < n; ++j) acc += a.data()[i * n + j];
    out[i] = acc;
  }
  auto a_impl = a.impl();
  return MakeOpOutput({m, 1}, std::move(out), {a},
                      [a_impl, m, n](TensorImpl& self) {
                        if (!a_impl->requires_grad) return;
                        a_impl->EnsureGradAllocated();
                        for (int64_t i = 0; i < m; ++i) {
                          const float g = self.grad[i];
                          for (int64_t j = 0; j < n; ++j) {
                            a_impl->grad[i * n + j] += g;
                          }
                        }
                      });
}

Tensor RowL2Normalize(const Tensor& a, float eps) {
  SGCL_CHECK_EQ(a.dim(), 2);
  const int64_t m = a.rows(), n = a.cols();
  std::vector<float> out(a.values());
  std::vector<float> norms(static_cast<size_t>(m));
  for (int64_t i = 0; i < m; ++i) {
    double acc = 0.0;
    for (int64_t j = 0; j < n; ++j) {
      const float v = out[i * n + j];
      acc += static_cast<double>(v) * v;
    }
    const float norm = std::max(static_cast<float>(std::sqrt(acc)), eps);
    norms[i] = norm;
    for (int64_t j = 0; j < n; ++j) out[i * n + j] /= norm;
  }
  auto a_impl = a.impl();
  return MakeOpOutput(
      a.shape(), std::move(out), {a},
      [a_impl, norms = std::move(norms), m, n](TensorImpl& self) {
        if (!a_impl->requires_grad) return;
        a_impl->EnsureGradAllocated();
        for (int64_t i = 0; i < m; ++i) {
          // y = x/||x||; dx = (dy - y (y . dy)) / ||x||.
          const float* y = self.data.data() + i * n;
          const float* dy = self.grad.data() + i * n;
          float dot = 0.0f;
          for (int64_t j = 0; j < n; ++j) dot += y[j] * dy[j];
          float* dx = a_impl->grad.data() + i * n;
          for (int64_t j = 0; j < n; ++j) {
            dx[j] += (dy[j] - y[j] * dot) / norms[i];
          }
        }
      });
}

Tensor ConcatCols(const Tensor& a, const Tensor& b) {
  SGCL_CHECK_EQ(a.dim(), 2);
  SGCL_CHECK_EQ(b.dim(), 2);
  SGCL_CHECK_EQ(a.rows(), b.rows());
  const int64_t m = a.rows(), na = a.cols(), nb = b.cols();
  std::vector<float> out(static_cast<size_t>(m * (na + nb)));
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < na; ++j) out[i * (na + nb) + j] = a.At(i, j);
    for (int64_t j = 0; j < nb; ++j) out[i * (na + nb) + na + j] = b.At(i, j);
  }
  auto a_impl = a.impl();
  auto b_impl = b.impl();
  return MakeOpOutput(
      {m, na + nb}, std::move(out), {a, b},
      [a_impl, b_impl, m, na, nb](TensorImpl& self) {
        const int64_t n = na + nb;
        if (a_impl->requires_grad) {
          a_impl->EnsureGradAllocated();
          for (int64_t i = 0; i < m; ++i) {
            for (int64_t j = 0; j < na; ++j) {
              a_impl->grad[i * na + j] += self.grad[i * n + j];
            }
          }
        }
        if (b_impl->requires_grad) {
          b_impl->EnsureGradAllocated();
          for (int64_t i = 0; i < m; ++i) {
            for (int64_t j = 0; j < nb; ++j) {
              b_impl->grad[i * nb + j] += self.grad[i * n + na + j];
            }
          }
        }
      });
}

Tensor CrossEntropyWithLogits(const Tensor& logits,
                              const std::vector<int>& labels) {
  SGCL_CHECK_EQ(logits.dim(), 2);
  const int64_t m = logits.rows(), c = logits.cols();
  SGCL_CHECK_EQ(m, static_cast<int64_t>(labels.size()));
  // Forward: mean over rows of -log softmax(logits)[label].
  std::vector<float> probs(logits.values());
  double loss = 0.0;
  for (int64_t i = 0; i < m; ++i) {
    float* row = probs.data() + i * c;
    float mx = row[0];
    for (int64_t j = 1; j < c; ++j) mx = std::max(mx, row[j]);
    double denom = 0.0;
    for (int64_t j = 0; j < c; ++j) denom += std::exp(row[j] - mx);
    const float lse = mx + static_cast<float>(std::log(denom));
    const int y = labels[i];
    SGCL_CHECK(y >= 0 && y < c);
    loss -= (row[y] - lse);
    for (int64_t j = 0; j < c; ++j) {
      row[j] = std::exp(row[j] - lse);  // softmax, reused in backward
    }
  }
  loss /= static_cast<double>(m);
  auto l_impl = logits.impl();
  return MakeOpOutput(
      {1, 1}, {static_cast<float>(loss)}, {logits},
      [l_impl, probs = std::move(probs), labels, m, c](TensorImpl& self) {
        if (!l_impl->requires_grad) return;
        l_impl->EnsureGradAllocated();
        const float g = self.grad[0] / static_cast<float>(m);
        for (int64_t i = 0; i < m; ++i) {
          for (int64_t j = 0; j < c; ++j) {
            float delta = probs[i * c + j];
            if (j == labels[i]) delta -= 1.0f;
            l_impl->grad[i * c + j] += g * delta;
          }
        }
      });
}

Tensor BceWithLogits(const Tensor& logits, const Tensor& targets,
                     const Tensor& mask) {
  CheckSameShape(logits, targets);
  CheckSameShape(logits, mask);
  const size_t n = logits.values().size();
  double loss = 0.0;
  double count = 0.0;
  for (size_t i = 0; i < n; ++i) {
    if (mask.data()[i] == 0.0f) continue;
    const float z = logits.data()[i];
    const float t = targets.data()[i];
    // Stable: max(z,0) - z*t + log(1 + exp(-|z|)).
    loss += std::max(z, 0.0f) - z * t + std::log1p(std::exp(-std::fabs(z)));
    count += 1.0;
  }
  SGCL_CHECK_GT(count, 0.0);
  loss /= count;
  auto l_impl = logits.impl();
  auto t_impl = targets.impl();
  auto m_impl = mask.impl();
  return MakeOpOutput(
      {1, 1}, {static_cast<float>(loss)}, {logits, targets, mask},
      [l_impl, t_impl, m_impl, count](TensorImpl& self) {
        if (!l_impl->requires_grad) return;
        l_impl->EnsureGradAllocated();
        const float g = self.grad[0] / static_cast<float>(count);
        for (size_t i = 0; i < l_impl->data.size(); ++i) {
          if (m_impl->data[i] == 0.0f) continue;
          const float z = l_impl->data[i];
          const float s = 1.0f / (1.0f + std::exp(-z));
          l_impl->grad[i] += g * (s - t_impl->data[i]);
        }
      });
}

}  // namespace sgcl
