#include "baselines/graph_kernels.h"

#include <algorithm>
#include <cmath>

#include "common/crc32.h"
#include "common/rng.h"

namespace sgcl {
namespace {

// FNV-1a over the (little-endian) bytes of a sequence of int64 values,
// masked to a non-negative id.
int64_t HashSequence(const std::vector<int64_t>& values) {
  const uint64_t h =
      Fnv1a64(values.data(), values.size() * sizeof(int64_t));
  return static_cast<int64_t>(h & 0x7fffffffffffffffULL);
}

// Initial WL label: argmax of one-hot features, or degree when the
// feature row is all zero.
int64_t InitialLabel(const Graph& g, int64_t v,
                     const std::vector<int64_t>& degrees) {
  int64_t best_j = -1;
  float best = 0.0f;
  for (int64_t j = 0; j < g.feat_dim(); ++j) {
    if (g.feature(v, j) > best) {
      best = g.feature(v, j);
      best_j = j;
    }
  }
  if (best_j >= 0) return best_j;
  return 1000 + degrees[v];
}

double SparseDot(const std::unordered_map<int64_t, double>& a,
                 const std::unordered_map<int64_t, double>& b) {
  const auto& small = a.size() <= b.size() ? a : b;
  const auto& large = a.size() <= b.size() ? b : a;
  double dot = 0.0;
  for (const auto& [key, value] : small) {
    auto it = large.find(key);
    if (it != large.end()) dot += value * it->second;
  }
  return dot;
}

void CosineNormalize(std::vector<double>* gram, int64_t n) {
  std::vector<double> diag(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    diag[i] = std::sqrt(std::max((*gram)[i * n + i], 1e-12));
  }
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      (*gram)[i * n + j] /= diag[i] * diag[j];
    }
  }
}

}  // namespace

GraphKernel::GraphKernel(KernelKind kind, int wl_iterations,
                         int graphlet_samples, uint64_t seed)
    : kind_(kind),
      wl_iterations_(wl_iterations),
      graphlet_samples_(graphlet_samples),
      seed_(seed) {
  SGCL_CHECK_GE(wl_iterations, 1);
  SGCL_CHECK_GE(graphlet_samples, 10);
}

std::string GraphKernel::name() const {
  switch (kind_) {
    case KernelKind::kGraphlet:
      return "GL";
    case KernelKind::kWlSubtree:
      return "WL";
    case KernelKind::kDeepWl:
      return "DGK";
  }
  return "unknown";
}

std::unordered_map<int64_t, double> GraphKernel::WlFeatureMap(
    const Graph& graph) const {
  std::unordered_map<int64_t, double> histogram;
  const int64_t n = graph.num_nodes();
  if (n == 0) return histogram;
  const std::vector<int64_t> degrees = graph.Degrees();
  std::vector<int64_t> labels(static_cast<size_t>(n));
  for (int64_t v = 0; v < n; ++v) {
    labels[v] = InitialLabel(graph, v, degrees);
    histogram[labels[v]] += 1.0;
  }
  // Precompute neighbor lists once.
  std::vector<std::vector<int32_t>> nbrs(static_cast<size_t>(n));
  for (size_t r = 0; r < graph.edge_src().size(); ++r) {
    nbrs[graph.edge_src()[r]].push_back(graph.edge_dst()[r]);
  }
  for (int it = 0; it < wl_iterations_; ++it) {
    std::vector<int64_t> next(static_cast<size_t>(n));
    for (int64_t v = 0; v < n; ++v) {
      std::vector<int64_t> signature;
      signature.reserve(nbrs[v].size() + 2);
      signature.push_back(it + 1);
      signature.push_back(labels[v]);
      std::vector<int64_t> neigh;
      neigh.reserve(nbrs[v].size());
      for (int32_t u : nbrs[v]) neigh.push_back(labels[u]);
      std::sort(neigh.begin(), neigh.end());
      signature.insert(signature.end(), neigh.begin(), neigh.end());
      next[v] = HashSequence(signature);
      histogram[next[v]] += 1.0;
    }
    labels.swap(next);
  }
  return histogram;
}

std::vector<double> GraphKernel::GraphletHistogram(const Graph& graph,
                                                   uint64_t seed) const {
  std::vector<double> hist(4, 0.0);
  const int64_t n = graph.num_nodes();
  if (n < 3) {
    hist[0] = 1.0;
    return hist;
  }
  Rng rng(seed);
  for (int s = 0; s < graphlet_samples_; ++s) {
    std::vector<int64_t> trio = rng.SampleWithoutReplacement(n, 3);
    int edges = graph.HasEdge(trio[0], trio[1]) +
                graph.HasEdge(trio[0], trio[2]) +
                graph.HasEdge(trio[1], trio[2]);
    hist[edges] += 1.0;
  }
  for (double& h : hist) h /= static_cast<double>(graphlet_samples_);
  return hist;
}

std::vector<double> GraphKernel::GramMatrix(
    const std::vector<const Graph*>& graphs) const {
  const int64_t n = static_cast<int64_t>(graphs.size());
  std::vector<double> gram(static_cast<size_t>(n * n), 0.0);

  if (kind_ == KernelKind::kGraphlet) {
    std::vector<std::vector<double>> hists(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      hists[i] = GraphletHistogram(*graphs[i],
                                   seed_ + static_cast<uint64_t>(i) * 7919);
    }
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t j = i; j < n; ++j) {
        double dot = 0.0;
        for (int b = 0; b < 4; ++b) dot += hists[i][b] * hists[j][b];
        gram[i * n + j] = gram[j * n + i] = dot;
      }
    }
    CosineNormalize(&gram, n);
    return gram;
  }

  std::vector<std::unordered_map<int64_t, double>> features(
      static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) features[i] = WlFeatureMap(*graphs[i]);

  if (kind_ == KernelKind::kWlSubtree) {
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t j = i; j < n; ++j) {
        gram[i * n + j] = gram[j * n + i] =
            SparseDot(features[i], features[j]);
      }
    }
    CosineNormalize(&gram, n);
    return gram;
  }

  // DGK: embed each WL label into R^k via a random base vector smoothed
  // by within-graph label co-occurrence, then kernel = dot of embedded
  // graph vectors. This reproduces DGK's idea — similarity between
  // *different but related* substructure labels — without the full
  // skip-gram training (documented in DESIGN.md).
  constexpr int kDim = 16;
  std::unordered_map<int64_t, std::vector<double>> base;
  auto base_vec = [&](int64_t label) -> const std::vector<double>& {
    auto it = base.find(label);
    if (it != base.end()) return it->second;
    Rng lrng(seed_ ^ static_cast<uint64_t>(label));
    std::vector<double> v(kDim);
    for (double& x : v) x = lrng.Normal();
    return base.emplace(label, std::move(v)).first->second;
  };
  // Co-occurrence smoothing: each label's embedding is pulled toward the
  // centroid of labels it co-occurs with (in the same graph).
  std::unordered_map<int64_t, std::vector<double>> smoothed;
  std::unordered_map<int64_t, double> cooc_mass;
  for (int64_t i = 0; i < n; ++i) {
    // Graph centroid of base vectors, weighted by counts.
    std::vector<double> centroid(kDim, 0.0);
    double total = 0.0;
    for (const auto& [label, count] : features[i]) {
      const auto& bv = base_vec(label);
      for (int d = 0; d < kDim; ++d) centroid[d] += count * bv[d];
      total += count;
    }
    if (total <= 0.0) continue;
    for (double& x : centroid) x /= total;
    for (const auto& [label, count] : features[i]) {
      auto& sv = smoothed[label];
      if (sv.empty()) sv.assign(kDim, 0.0);
      for (int d = 0; d < kDim; ++d) sv[d] += count * centroid[d];
      cooc_mass[label] += count;
    }
  }
  auto embed = [&](int64_t label) {
    std::vector<double> v = base_vec(label);
    auto it = smoothed.find(label);
    if (it != smoothed.end()) {
      const double mass = cooc_mass[label];
      for (int d = 0; d < kDim; ++d) v[d] += 0.5 * it->second[d] / mass;
    }
    return v;
  };
  std::vector<std::vector<double>> graph_vecs(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    std::vector<double> gv(kDim, 0.0);
    for (const auto& [label, count] : features[i]) {
      std::vector<double> e = embed(label);
      for (int d = 0; d < kDim; ++d) gv[d] += count * e[d];
    }
    graph_vecs[i] = std::move(gv);
  }
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = i; j < n; ++j) {
      double dot = 0.0;
      for (int d = 0; d < kDim; ++d) dot += graph_vecs[i][d] * graph_vecs[j][d];
      gram[i * n + j] = gram[j * n + i] = dot;
    }
  }
  // Dot products of smoothed embeddings can be negative; shift the Gram
  // to be PSD-ish by cosine normalization over absolute diagonal.
  for (int64_t i = 0; i < n; ++i) {
    gram[i * n + i] = std::max(gram[i * n + i], 1e-9);
  }
  CosineNormalize(&gram, n);
  return gram;
}

}  // namespace sgcl
