#include "nn/gin_kernel.h"

#include <algorithm>

#include "common/parallel.h"
#include "common/simd.h"

namespace sgcl {
namespace {

// Output tiles of the dense products are kTileRows x kTileCols: 128
// accumulators, eight 512-bit registers on x86-64-v4.
constexpr int64_t kTileRows = 4;
constexpr int64_t kTileCols = 32;

// Rows r < R of C = A B over all `cols` columns, where A(r, k) =
// a[r * a_row + k * a_k] and B is [depth, cols] row-major; row r of C
// starts at c + r * ldc. Each element starts at +0.0f, or at its current
// value when `accumulate`, and adds A(r, k) B[k][j] in ascending k — the
// order of tensor/ops.cc MatMul's output and of its dB, which
// accumulates onto the gradient. A dense product (not `accumulate`)
// then adds bias[j] (+0.0f when null) and, with `relu`, writes 0 where
// the sum is not > 0: the per-op tape's MatMul, bias Add, Relu.
//
// Full kTileCols-wide tiles have compile-time bounds, so GCC keeps their
// R x kTileCols accumulators in registers across the k loop; a column
// tail runs the same loop with a runtime width, one row at a time. The
// helper is force-inlined: each SGCL_TARGET_CLONES caller then compiles
// it for its own ISA, where a plain `inline` one may be emitted once,
// for the baseline ISA, and called from every clone. Unlike MatMul
// there is no zero-input skip: ReLU inputs are ~half zeros at random
// positions, and the resulting branch mispredicts cost more than the
// vectorized multiplies they save (adding 0 * w to a finite sum is
// bitwise-neutral, so results are unchanged).
template <int64_t R>
[[gnu::always_inline]] inline void ProductRows(
    const float* a, int64_t a_row, int64_t a_k, int64_t depth, const float* b,
    int64_t cols, const float* bias, bool relu, bool accumulate, float* c,
    int64_t ldc) {
  const auto finish = [&](float acc, int64_t j) {
    if (accumulate) return acc;
    const float v = acc + (bias != nullptr ? bias[j] : 0.0f);
    return !relu || v > 0.0f ? v : 0.0f;
  };
  int64_t j0 = 0;
  for (; j0 + kTileCols <= cols; j0 += kTileCols) {
    float acc[R][kTileCols];
    for (int64_t r = 0; r < R; ++r) {
      for (int64_t t = 0; t < kTileCols; ++t) {
        acc[r][t] = accumulate ? c[r * ldc + j0 + t] : 0.0f;
      }
    }
    for (int64_t k = 0; k < depth; ++k) {
      const float* brow = b + k * cols + j0;
      for (int64_t r = 0; r < R; ++r) {
        const float av = a[r * a_row + k * a_k];
        for (int64_t t = 0; t < kTileCols; ++t) acc[r][t] += av * brow[t];
      }
    }
    for (int64_t r = 0; r < R; ++r) {
      for (int64_t t = 0; t < kTileCols; ++t) {
        c[r * ldc + j0 + t] = finish(acc[r][t], j0 + t);
      }
    }
  }
  if (j0 == cols) return;
  const int64_t blk = cols - j0;
  for (int64_t r = 0; r < R; ++r) {
    float* crow = c + r * ldc + j0;
    float acc[kTileCols];
    for (int64_t t = 0; t < blk; ++t) acc[t] = accumulate ? crow[t] : 0.0f;
    for (int64_t k = 0; k < depth; ++k) {
      const float av = a[r * a_row + k * a_k];
      const float* brow = b + k * cols + j0;
      for (int64_t t = 0; t < blk; ++t) acc[t] += av * brow[t];
    }
    for (int64_t t = 0; t < blk; ++t) crow[t] = finish(acc[t], j0 + t);
  }
}

// The two MLP layers of R rows whose aggregates are in `arows`, each
// followed by its ReLU (the hidden one and the layer's output one).
template <int64_t R>
[[gnu::always_inline]] inline void MlpRows(const GinLayerParams& p,
                                           const float* arows, float* hrows,
                                           float* yrows) {
  ProductRows<R>(arows, p.in, 1, p.in, p.w1, p.hid, p.b1, /*relu=*/true,
                 /*accumulate=*/false, hrows, p.hid);
  ProductRows<R>(hrows, p.hid, 1, p.hid, p.w2, p.out, p.b2, /*relu=*/true,
                 /*accumulate=*/false, yrows, p.out);
}

// agg_v = x_v + sum of (weighted) in-neighbors, neighbor terms first and
// in edge order — the order of ScatterAddRows followed by Add(x, sum).
// Under a masked view (masked >= 0) the in-edges from `masked` are
// skipped and the masked row keeps none.
[[gnu::always_inline]] inline void AggregateRow(const GinLayerParams& p,
                                                const float* in,
                                                const EdgeCsr& in_edges,
                                                int64_t v, int64_t masked,
                                                float* arow) {
  for (int64_t j = 0; j < p.in; ++j) arow[j] = 0.0f;
  const bool weighted = !in_edges.weights.empty();
  for (int64_t t = in_edges.offsets[v];
       v != masked && t < in_edges.offsets[v + 1]; ++t) {
    if (in_edges.nbrs[t] == masked) continue;
    const float* srow = in + static_cast<int64_t>(in_edges.nbrs[t]) * p.in;
    if (weighted) {
      const float w = in_edges.weights[t];
      for (int64_t j = 0; j < p.in; ++j) arow[j] += srow[j] * w;
    } else {
      for (int64_t j = 0; j < p.in; ++j) arow[j] += srow[j];
    }
  }
  const float* xrow = in + v * p.in;
  for (int64_t j = 0; j < p.in; ++j) arow[j] = xrow[j] + arow[j];
}

// Rows [lo, hi) of GinLayerForward, kTileRows at a time and the last
// rows singly. Rowwise given the previous layer's activations, so rows
// partition freely across threads and tiles without changing any
// result.
SGCL_TARGET_CLONES
void GinLayerRows(const GinLayerParams& p, const float* in,
                  const EdgeCsr& in_edges, float* agg, float* hid, float* dst,
                  int64_t lo, int64_t hi) {
  int64_t v = lo;
  for (; v + kTileRows <= hi; v += kTileRows) {
    for (int64_t r = 0; r < kTileRows; ++r) {
      AggregateRow(p, in, in_edges, v + r, /*masked=*/-1, agg + (v + r) * p.in);
    }
    MlpRows<kTileRows>(p, agg + v * p.in, hid + v * p.hid, dst + v * p.out);
  }
  for (; v < hi; ++v) {
    AggregateRow(p, in, in_edges, v, /*masked=*/-1, agg + v * p.in);
    MlpRows<1>(p, agg + v * p.in, hid + v * p.hid, dst + v * p.out);
  }
}

// Rows [v, v + R) of the hidden-side gradients. With dH = dout W2^T (a
// product against W2^T, so each element sums over the output dimension
// in ascending order from 0, like MatMul's dA):
//   dpre = dH where hid > 0, else 0             (the hidden ReLU)
//   dagg = dpre W1^T                            (when dagg != nullptr)
template <int64_t R>
[[gnu::always_inline]] inline void HiddenGradBlock(
    const GinLayerParams& p, const float* dout, const float* hid,
    const float* w2t, const float* w1t, float* dpre, float* dagg, int64_t v) {
  float* drows = dpre + v * p.hid;
  ProductRows<R>(dout + v * p.out, p.out, 1, p.out, w2t, p.hid, nullptr,
                 /*relu=*/false, /*accumulate=*/false, drows, p.hid);
  const float* hrows = hid + v * p.hid;
  for (int64_t j = 0; j < R * p.hid; ++j) {
    if (!(hrows[j] > 0.0f)) drows[j] = 0.0f;
  }
  if (dagg != nullptr) {
    ProductRows<R>(drows, p.hid, 1, p.hid, w1t, p.in, nullptr, /*relu=*/false,
                   /*accumulate=*/false, dagg + v * p.in, p.in);
  }
}

// Rows [lo, hi) of the hidden-side gradients, kTileRows at a time.
SGCL_TARGET_CLONES
void HiddenGradRows(const GinLayerParams& p, const float* dout,
                    const float* hid, const float* w2t, const float* w1t,
                    float* dpre, float* dagg, int64_t lo, int64_t hi) {
  int64_t v = lo;
  for (; v + kTileRows <= hi; v += kTileRows) {
    HiddenGradBlock<kTileRows>(p, dout, hid, w2t, w1t, dpre, dagg, v);
  }
  for (; v < hi; ++v) HiddenGradBlock<1>(p, dout, hid, w2t, w1t, dpre, dagg, v);
}

// Rows [lo, hi) of dw += a^T g for a [n, k] and g [n, cols]: weight row
// p accumulates a[i][p] * g[i] over nodes i in ascending order directly
// onto its current value, as MatMul's dB does. A tile takes kTileRows
// weight rows, i.e. kTileRows adjacent columns of `a`.
SGCL_TARGET_CLONES
void OuterGradRows(const float* a, int64_t k, const float* g, int64_t n,
                   int64_t cols, float* dw, int64_t lo, int64_t hi) {
  int64_t p = lo;
  for (; p + kTileRows <= hi; p += kTileRows) {
    ProductRows<kTileRows>(a + p, /*a_row=*/1, /*a_k=*/k, n, g, cols, nullptr,
                           /*relu=*/false, /*accumulate=*/true, dw + p * cols,
                           cols);
  }
  for (; p < hi; ++p) {
    ProductRows<1>(a + p, 1, k, n, g, cols, nullptr, /*relu=*/false,
                   /*accumulate=*/true, dw + p * cols, cols);
  }
}

// db += column sums of g [n, cols], rows in ascending order (the bias
// Add's backward).
SGCL_TARGET_CLONES
void ColumnSums(const float* g, int64_t n, int64_t cols, float* db) {
  for (int64_t i = 0; i < n; ++i) {
    const float* grow = g + i * cols;
    for (int64_t j = 0; j < cols; ++j) db[j] += grow[j];
  }
}

// Rows [lo, hi) of the input gradient: each row first gathers its
// out-edges' (weighted) aggregate gradients in edge order (GatherRows'
// backward), then adds the self term (Add's backward).
SGCL_TARGET_CLONES
void InputGradRows(const GinLayerParams& p, const float* dagg,
                   const EdgeCsr& out_edges, float* dx, int64_t lo,
                   int64_t hi) {
  const bool weighted = !out_edges.weights.empty();
  for (int64_t u = lo; u < hi; ++u) {
    float* xrow = dx + u * p.in;
    for (int64_t t = out_edges.offsets[u]; t < out_edges.offsets[u + 1];
         ++t) {
      const float* grow = dagg + static_cast<int64_t>(out_edges.nbrs[t]) * p.in;
      if (weighted) {
        const float w = out_edges.weights[t];
        for (int64_t j = 0; j < p.in; ++j) xrow[j] += grow[j] * w;
      } else {
        for (int64_t j = 0; j < p.in; ++j) xrow[j] += grow[j];
      }
    }
    const float* grow = dagg + u * p.in;
    for (int64_t j = 0; j < p.in; ++j) xrow[j] += grow[j];
  }
}

std::vector<float> Transposed(const float* w, int64_t rows, int64_t cols) {
  std::vector<float> t(static_cast<size_t>(rows * cols));
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t c = 0; c < cols; ++c) t[c * rows + r] = w[r * cols + c];
  }
  return t;
}

}  // namespace

EdgeCsr BuildEdgeCsr(int64_t n, const int32_t* by, const int32_t* other,
                     int64_t num_edges, const float* weights) {
  EdgeCsr csr;
  csr.offsets.assign(static_cast<size_t>(n) + 1, 0);
  for (int64_t e = 0; e < num_edges; ++e) ++csr.offsets[by[e] + 1];
  for (int64_t v = 0; v < n; ++v) csr.offsets[v + 1] += csr.offsets[v];
  csr.nbrs.resize(static_cast<size_t>(num_edges));
  if (weights != nullptr) csr.weights.resize(static_cast<size_t>(num_edges));
  std::vector<int64_t> cursor(csr.offsets.begin(), csr.offsets.end() - 1);
  for (int64_t e = 0; e < num_edges; ++e) {
    const int64_t slot = cursor[by[e]]++;
    csr.nbrs[slot] = other[e];
    if (weights != nullptr) csr.weights[slot] = weights[e];
  }
  return csr;
}

void GinLayerForward(const GinLayerParams& p, const float* x, int64_t n,
                     const EdgeCsr& in_edges, float* agg, float* hid,
                     float* out) {
  ParallelFor(0, n, RowGrain(p.in * p.hid + p.hid * p.out),
              [&](int64_t lo, int64_t hi) {
                GinLayerRows(p, x, in_edges, agg, hid, out, lo, hi);
              });
}

SGCL_TARGET_CLONES
void GinDirtyRows(const GinLayerParams& p, const float* in,
                  const EdgeCsr& in_edges, int64_t masked,
                  const int32_t* dirty, int64_t num_dirty, float* agg,
                  float* hid, float* dst) {
  for (int64_t t = 0; t < num_dirty; ++t) {
    const int64_t v = dirty[t];
    AggregateRow(p, in, in_edges, v, masked, agg);
    MlpRows<1>(p, agg, hid, dst + v * p.out);
  }
}

void GinLayerBackward(const GinLayerParams& p, int64_t n, const float* x,
                      const int32_t* edge_src, const int32_t* edge_dst,
                      int64_t num_edges, const float* edge_weights,
                      const float* agg, const float* hid, const float* dout,
                      const GinLayerGrads& grads) {
  const bool need_dagg = grads.x != nullptr || grads.edge_weights != nullptr;
  const bool need_dpre = need_dagg || grads.w1 != nullptr || grads.b1 != nullptr;
  std::vector<float> dpre, dagg;
  if (need_dpre) {
    const std::vector<float> w2t = Transposed(p.w2, p.hid, p.out);
    std::vector<float> w1t;
    dpre.resize(static_cast<size_t>(n * p.hid));
    if (need_dagg) {
      w1t = Transposed(p.w1, p.in, p.hid);
      dagg.resize(static_cast<size_t>(n * p.in));
    }
    ParallelFor(0, n, RowGrain(p.hid * p.out + (need_dagg ? p.in * p.hid : 0)),
                [&](int64_t lo, int64_t hi) {
                  HiddenGradRows(p, dout, hid, w2t.data(),
                                 need_dagg ? w1t.data() : nullptr, dpre.data(),
                                 need_dagg ? dagg.data() : nullptr, lo, hi);
                });
  }
  // Weight gradients: one partition over the rows of W1 then W2, each
  // row owning a disjoint gradient slice.
  ParallelFor(0, p.in + p.hid, RowGrain(n * std::max(p.hid, p.out)),
              [&](int64_t lo, int64_t hi) {
                if (grads.w1 != nullptr && lo < p.in) {
                  OuterGradRows(agg, p.in, dpre.data(), n, p.hid, grads.w1, lo,
                                std::min(hi, p.in));
                }
                if (grads.w2 != nullptr && hi > p.in) {
                  OuterGradRows(hid, p.hid, dout, n, p.out, grads.w2,
                                std::max(lo, p.in) - p.in, hi - p.in);
                }
              });
  if (grads.b1 != nullptr) ColumnSums(dpre.data(), n, p.hid, grads.b1);
  if (grads.b2 != nullptr) ColumnSums(dout, n, p.out, grads.b2);
  if (grads.x != nullptr) {
    const EdgeCsr out_edges =
        BuildEdgeCsr(n, edge_src, edge_dst, num_edges, edge_weights);
    ParallelFor(0, n, RowGrain(p.in * (1 + num_edges / std::max<int64_t>(1, n))),
                [&](int64_t lo, int64_t hi) {
                  InputGradRows(p, dagg.data(), out_edges, grads.x, lo, hi);
                });
  }
  if (grads.edge_weights != nullptr) {
    // dw_e = dAgg_dst(e) . x_src(e), summed from 0 in ascending column
    // order (MulBroadcastCol's backward), then added to the gradient.
    ParallelFor(0, num_edges, RowGrain(2 * p.in), [&](int64_t lo, int64_t hi) {
      for (int64_t e = lo; e < hi; ++e) {
        const float* grow = dagg.data() + static_cast<int64_t>(edge_dst[e]) * p.in;
        const float* xrow = x + static_cast<int64_t>(edge_src[e]) * p.in;
        float acc = 0.0f;
        for (int64_t j = 0; j < p.in; ++j) acc += grow[j] * xrow[j];
        grads.edge_weights[e] += acc;
      }
    });
  }
}

}  // namespace sgcl
