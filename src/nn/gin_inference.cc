#include "nn/gin_inference.h"

#include <algorithm>
#include <memory>

#include "nn/gin_conv.h"

namespace sgcl {
namespace {

int64_t MaxLayerDim(const std::vector<GinLayerParams>& layers) {
  int64_t max_dim = 0;
  for (const GinLayerParams& layer : layers) {
    max_dim = std::max({max_dim, layer.in, layer.hid, layer.out});
  }
  return max_dim;
}

}  // namespace

GinInferencePlan GinInferencePlan::Build(const GnnEncoder& encoder) {
  GinInferencePlan plan;
  const int num_layers = encoder.config().num_layers;
  for (int l = 0; l < num_layers; ++l) {
    const GinConv* gin = dynamic_cast<const GinConv*>(&encoder.conv(l));
    if (gin == nullptr) return GinInferencePlan();
    plan.layers_.push_back(gin->LayerParams());
  }
  return plan;
}

void GinInferencePlan::EncodeNodes(const float* x, int64_t n,
                                   const int32_t* edge_src,
                                   const int32_t* edge_dst, int64_t num_edges,
                                   float* out) const {
  SGCL_CHECK(valid());
  if (n == 0) return;
  const EdgeCsr in_edges =
      BuildEdgeCsr(n, edge_dst, edge_src, num_edges, /*weights=*/nullptr);
  const int64_t max_dim = MaxLayerDim(layers_);
  // Uninitialized scratch: every row is fully written before it is read.
  const size_t scratch = static_cast<size_t>(n * max_dim);
  auto buf_a = std::make_unique_for_overwrite<float[]>(scratch);
  auto buf_b = std::make_unique_for_overwrite<float[]>(scratch);
  auto agg = std::make_unique_for_overwrite<float[]>(scratch);
  auto hid = std::make_unique_for_overwrite<float[]>(scratch);
  const float* in = x;
  for (size_t l = 0; l < layers_.size(); ++l) {
    const GinLayerParams& layer = layers_[l];
    float* dst = (l + 1 == layers_.size())
                     ? out
                     : (l % 2 == 0 ? buf_a.get() : buf_b.get());
    GinLayerForward(layer, in, n, in_edges, agg.get(), hid.get(), dst);
    in = dst;
  }
}

void GinInferencePlan::EncodeBatch(const GraphBatch& batch, float* out) const {
  EncodeNodes(batch.features.data(), batch.num_nodes, batch.edge_src.data(),
              batch.edge_dst.data(), static_cast<int64_t>(batch.edge_src.size()),
              out);
}

GinMaskedViewKernel::GinMaskedViewKernel(const GinInferencePlan& plan,
                                         const float* x, int64_t n,
                                         const int32_t* edge_src,
                                         const int32_t* edge_dst,
                                         int64_t num_edges)
    : plan_(&plan), x_(x), n_(n) {
  SGCL_CHECK(plan.valid());
  in_edges_ =
      BuildEdgeCsr(n, edge_dst, edge_src, num_edges, /*weights=*/nullptr);
  // Undirected neighbor CSR for the BFS balls. Self-loops and parallel
  // edges duplicate entries, which the BFS visited check tolerates.
  adj_offsets_.assign(static_cast<size_t>(n) + 1, 0);
  for (int64_t e = 0; e < num_edges; ++e) {
    ++adj_offsets_[edge_src[e] + 1];
    ++adj_offsets_[edge_dst[e] + 1];
  }
  for (int64_t v = 0; v < n; ++v) adj_offsets_[v + 1] += adj_offsets_[v];
  adj_.resize(static_cast<size_t>(adj_offsets_[n]));
  {
    std::vector<int64_t> cursor(adj_offsets_.begin(), adj_offsets_.end() - 1);
    for (int64_t e = 0; e < num_edges; ++e) {
      adj_[cursor[edge_src[e]]++] = edge_dst[e];
      adj_[cursor[edge_dst[e]]++] = edge_src[e];
    }
  }
  // Base encode, keeping every layer's activations for reuse as the
  // clean rows of each masked view.
  const std::vector<GinLayerParams>& layers = plan.layers();
  layer_acts_.resize(layers.size());
  const size_t scratch = static_cast<size_t>(n * MaxLayerDim(layers));
  auto agg = std::make_unique_for_overwrite<float[]>(scratch);
  auto hid = std::make_unique_for_overwrite<float[]>(scratch);
  const float* in = x;
  for (size_t l = 0; l < layers.size(); ++l) {
    const GinLayerParams& layer = layers[l];
    layer_acts_[l].resize(static_cast<size_t>(n * layer.out));
    float* dst = layer_acts_[l].data();
    GinLayerForward(layer, in, n, in_edges_, agg.get(), hid.get(), dst);
    in = dst;
  }
}

void GinMaskedViewKernel::ViewDisplacementsSq(int64_t begin, int64_t end,
                                              double* out) const {
  const std::vector<GinLayerParams>& layers = plan_->layers();
  const int64_t L = static_cast<int64_t>(layers.size());
  const int64_t f = layers[0].in;
  const int64_t d = layers.back().out;
  // Working copies of the features and base activations. Each view edits
  // only its dirty ball and restores those rows afterwards, so the full
  // copies are paid once per call and amortize over [begin, end).
  std::vector<std::vector<float>> bufs(static_cast<size_t>(L) + 1);
  bufs[0].assign(x_, x_ + n_ * f);
  for (int64_t l = 0; l < L; ++l) bufs[l + 1] = layer_acts_[l];
  std::vector<float> agg(static_cast<size_t>(MaxLayerDim(layers)));
  std::vector<float> hid(agg.size());
  std::vector<uint8_t> dist(static_cast<size_t>(n_), 0xFF);
  std::vector<int32_t> ball, sorted;
  std::vector<int64_t> level_end(static_cast<size_t>(L) + 1);
  for (int64_t r = begin; r < end; ++r) {
    // L-level BFS ball around r on the base graph: a node's layer-l
    // activation can differ from base only if it is within l hops of r,
    // so B_l = ball[0 .. level_end[l]) is the layer-l dirty set.
    ball.clear();
    ball.push_back(static_cast<int32_t>(r));
    dist[r] = 0;
    level_end[0] = 1;
    int64_t frontier = 0;
    for (int64_t l = 1; l <= L; ++l) {
      const int64_t frontier_end = static_cast<int64_t>(ball.size());
      for (; frontier < frontier_end; ++frontier) {
        const int64_t v = ball[frontier];
        for (int64_t t = adj_offsets_[v]; t < adj_offsets_[v + 1]; ++t) {
          const int32_t u = adj_[t];
          if (dist[u] == 0xFF) {
            dist[u] = static_cast<uint8_t>(l);
            ball.push_back(u);
          }
        }
      }
      level_end[l] = static_cast<int64_t>(ball.size());
    }
    // Layer 0 of the view: only row r changes (features zeroed).
    std::fill_n(bufs[0].begin() + r * f, f, 0.0f);
    for (int64_t l = 1; l <= L; ++l) {
      GinDirtyRows(layers[l - 1], bufs[l - 1].data(), in_edges_, r,
                   ball.data(), level_end[l], agg.data(), hid.data(),
                   bufs[l].data());
    }
    // Eq. 15 displacement. Rows outside the ball match base bit-for-bit
    // and would contribute exactly +0.0, so only ball rows are summed —
    // in ascending row order, making the result bitwise-identical to the
    // dense all-rows reduction. Row r is zeroed by the Eq. 15 mask and
    // contributes ||h_r||^2.
    sorted.assign(ball.begin(), ball.end());
    std::sort(sorted.begin(), sorted.end());
    double sq = 0.0;
    const float* h = layer_acts_.back().data();
    const float* hv = bufs[static_cast<size_t>(L)].data();
    for (const int32_t i : sorted) {
      const float* hrow = h + static_cast<int64_t>(i) * d;
      if (i == r) {
        for (int64_t j = 0; j < d; ++j) {
          sq += static_cast<double>(hrow[j]) * hrow[j];
        }
      } else {
        const float* vrow = hv + static_cast<int64_t>(i) * d;
        for (int64_t j = 0; j < d; ++j) {
          const float delta = hrow[j] - vrow[j];
          sq += static_cast<double>(delta) * delta;
        }
      }
    }
    out[r - begin] = sq;
    // Restore the touched rows and BFS marks for the next view.
    std::copy_n(x_ + r * f, f, bufs[0].begin() + r * f);
    for (int64_t l = 1; l <= L; ++l) {
      const int64_t od = layers[l - 1].out;
      for (int64_t t = 0; t < level_end[l]; ++t) {
        const int64_t v = ball[t];
        std::copy_n(layer_acts_[l - 1].data() + v * od, od,
                    bufs[static_cast<size_t>(l)].begin() + v * od);
      }
    }
    for (const int32_t v : ball) dist[v] = 0xFF;
  }
}

}  // namespace sgcl
