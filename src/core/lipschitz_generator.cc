#include "core/lipschitz_generator.h"

#include <algorithm>
#include <cmath>

#include "common/metrics.h"
#include "common/parallel.h"
#include "common/simd.h"
#include "common/trace.h"
#include "nn/gin_inference.h"

namespace sgcl {
namespace {

// Total masked-view nodes one parallel work item of the fused GIN kernel
// covers. Results never depend on it; timings are flat from 256 to 65536
// nodes (EXPERIMENTS.md).
constexpr int64_t kViewNodesPerTask = 1024;

// Squared Frobenius displacement between the base representation `h` and
// the masked view's representation `h_view`, with row r zeroed on the masked side
// (Eq. 15: the perturbation mask zeroes row r of Ĥ_r, so that row
// contributes ||h_r||^2). ISA-cloned: the float->double convert-and-
// accumulate loop vectorizes 8-wide on AVX-512 hosts.
SGCL_TARGET_CLONES
double ViewDisplacementSq(const float* h, const float* h_view, int64_t n,
                          int64_t d, int64_t r) {
  double sq = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    const float* hrow = h + i * d;
    const float* vrow = h_view + i * d;
    if (i == r) {
      for (int64_t j = 0; j < d; ++j) {
        sq += static_cast<double>(hrow[j]) * hrow[j];
      }
    } else {
      for (int64_t j = 0; j < d; ++j) {
        const float delta = hrow[j] - vrow[j];
        sq += static_cast<double>(delta) * delta;
      }
    }
  }
  return sq;
}

}  // namespace

float NodeDropTopologyDistance(int64_t degree, bool has_self_loop) {
  // Dropping node r zeroes row r and column r of A. Each incident edge
  // {r, j}, j != r contributes two unit entries; a self-loop contributes
  // one diagonal entry.
  const int64_t off_diag = degree - (has_self_loop ? 1 : 0);
  const float sq = 2.0f * static_cast<float>(off_diag) +
                   (has_self_loop ? 1.0f : 0.0f);
  return std::max(1.0f, std::sqrt(sq));
}

LipschitzGenerator::LipschitzGenerator(const GnnEncoder* encoder,
                                       LipschitzMode mode)
    : encoder_(encoder), mode_(mode) {
  SGCL_CHECK(encoder != nullptr);
}

std::vector<float> LipschitzGenerator::ComputeConstants(
    const std::vector<const Graph*>& graphs) const {
  if (mode_ == LipschitzMode::kAttentionApprox) {
    return ApproxConstants(graphs);
  }
  const int64_t num_graphs = static_cast<int64_t>(graphs.size());
  std::vector<int64_t> offsets(static_cast<size_t>(num_graphs) + 1, 0);
  for (int64_t g = 0; g < num_graphs; ++g) {
    offsets[g + 1] = offsets[g] + graphs[g]->num_nodes();
  }
  std::vector<float> all(static_cast<size_t>(offsets[num_graphs]), 0.0f);
  static Counter* const graphs_counter =
      MetricsRegistry::Global().GetCounter("generator/graphs");
  graphs_counter->Increment(num_graphs);
  // Each graph writes its own disjoint slice, so the result is identical
  // for every thread count.
  ParallelFor(0, num_graphs, 1, [&](int64_t lo, int64_t hi) {
    for (int64_t g = lo; g < hi; ++g) {
      std::vector<float> k = ExactConstants(*graphs[g]);
      std::copy(k.begin(), k.end(), all.begin() + offsets[g]);
    }
  });
  return all;
}

std::vector<float> LipschitzGenerator::ComputeConstants(
    const Graph& graph) const {
  return ComputeConstants(std::vector<const Graph*>{&graph});
}

std::vector<float> LipschitzGenerator::ExactConstants(
    const Graph& graph) const {
  // GIN stacks (the paper's default encoder) take the fused tape-free
  // masked-view kernel: one base encode keeping all layer activations,
  // then per view only the L-hop ball around the masked node is
  // recomputed (rows further away are bit-identical to the base encode).
  // Every other encoder runs the per-node reference.
  const GinInferencePlan plan = GinInferencePlan::Build(*encoder_);
  const int64_t n = graph.num_nodes();
  if (!plan.valid() || n == 0) return ExactConstantsReference(graph);
  std::vector<float> constants(static_cast<size_t>(n), 0.0f);
  GraphBatch base = GraphBatch::FromGraphPtrs({&graph});
  const std::vector<int64_t> deg = graph.Degrees();
  SGCL_TRACE_SPAN("generator/fused_views");
  GinMaskedViewKernel kernel(plan, base.features.data(), n,
                             base.edge_src.data(), base.edge_dst.data(),
                             static_cast<int64_t>(base.edge_src.size()));
  const int64_t grain = std::max<int64_t>(1, kViewNodesPerTask / n);
  ParallelFor(0, n, grain, [&](int64_t lo, int64_t hi) {
    // Chunk-granularity span: one per work item, recorded on the worker
    // thread that ran it, so traces show the fan-out without per-node
    // overhead.
    SGCL_TRACE_SPAN("generator/view_chunk");
    std::vector<double> disp(static_cast<size_t>(hi - lo));
    kernel.ViewDisplacementsSq(lo, hi, disp.data());
    for (int64_t r = lo; r < hi; ++r) {
      const float dr = static_cast<float>(std::sqrt(disp[r - lo]));
      const float dt = NodeDropTopologyDistance(deg[r], graph.HasEdge(r, r));
      constants[r] = dr / dt;
    }
  });
  return constants;
}

std::vector<float> LipschitzGenerator::ExactConstantsReference(
    const Graph& graph) const {
  const int64_t n = graph.num_nodes();
  std::vector<float> constants(static_cast<size_t>(n), 0.0f);
  if (n == 0) return constants;
  GraphBatch base = GraphBatch::FromGraphPtrs({&graph});
  const Tensor h = encoder_->EncodeNodes(base.features, base).Detach();
  const int64_t d = h.cols();
  const std::vector<int64_t> deg = graph.Degrees();
  for (int64_t r = 0; r < n; ++r) {
    // Masked view: node r's features zeroed and its edges removed
    // (Eq. 13-14 realized structurally, which for sum aggregators is the
    // same as multiplying messages by the mask).
    GraphBatch masked = base;
    std::vector<float> feats(base.features.values());
    for (int64_t j = 0; j < graph.feat_dim(); ++j) {
      feats[r * graph.feat_dim() + j] = 0.0f;
    }
    masked.features =
        Tensor::FromVector({n, graph.feat_dim()}, std::move(feats));
    masked.edge_src.clear();
    masked.edge_dst.clear();
    for (size_t e = 0; e < base.edge_src.size(); ++e) {
      if (base.edge_src[e] == r || base.edge_dst[e] == r) continue;
      masked.edge_src.push_back(base.edge_src[e]);
      masked.edge_dst.push_back(base.edge_dst[e]);
    }
    const Tensor h_masked =
        encoder_->EncodeNodes(masked.features, masked).Detach();
    const double sq = ViewDisplacementSq(h.data(), h_masked.data(), n, d, r);
    const float dr = static_cast<float>(std::sqrt(sq));
    const float dt = NodeDropTopologyDistance(deg[r], graph.HasEdge(r, r));
    constants[r] = dr / dt;
  }
  return constants;
}

std::vector<float> LipschitzGenerator::ApproxConstants(
    const std::vector<const Graph*>& graphs) const {
  SGCL_TRACE_SPAN("generator/approx");
  GraphBatch batch = GraphBatch::FromGraphPtrs(graphs);
  std::vector<float> constants(static_cast<size_t>(batch.num_nodes), 0.0f);
  if (batch.num_nodes == 0) return constants;
  const Tensor h = encoder_->EncodeNodes(batch.features, batch).Detach();
  const int64_t n = batch.num_nodes, d = h.cols();
  // Row norms of the final representations.
  std::vector<float> row_norm(static_cast<size_t>(n), 0.0f);
  for (int64_t i = 0; i < n; ++i) {
    double sq = 0.0;
    for (int64_t j = 0; j < d; ++j) {
      sq += static_cast<double>(h.At(i, j)) * h.At(i, j);
    }
    row_norm[i] = static_cast<float>(std::sqrt(sq));
  }
  const int64_t e = static_cast<int64_t>(batch.edge_src.size());
  // Attention weight of edge (r -> i): softmax over i's in-edges of the
  // scaled dot product h_r . h_i / sqrt(d) — the share of i's
  // representation attributable to r (§V's attention optimization).
  std::vector<float> scores(static_cast<size_t>(e));
  const float inv_sqrt_d = 1.0f / std::sqrt(static_cast<float>(d));
  for (int64_t r = 0; r < e; ++r) {
    const int64_t src = batch.edge_src[r], dst = batch.edge_dst[r];
    double dot = 0.0;
    for (int64_t j = 0; j < d; ++j) {
      dot += static_cast<double>(h.At(src, j)) * h.At(dst, j);
    }
    scores[r] = static_cast<float>(dot) * inv_sqrt_d;
  }
  // Segment-softmax by destination (plain arrays; no autograd needed).
  std::vector<float> seg_max(static_cast<size_t>(n), -3.4e38f);
  for (int64_t r = 0; r < e; ++r) {
    seg_max[batch.edge_dst[r]] =
        std::max(seg_max[batch.edge_dst[r]], scores[r]);
  }
  std::vector<float> seg_sum(static_cast<size_t>(n), 0.0f);
  for (int64_t r = 0; r < e; ++r) {
    scores[r] = std::exp(scores[r] - seg_max[batch.edge_dst[r]]);
    seg_sum[batch.edge_dst[r]] += scores[r];
  }
  // Accumulate squared representation displacement per source node:
  //   D_R(G, Ĝ_r)^2 ≈ ||h_r||^2 + sum_{i in N(r)} (alpha_{ri} ||h_i||)^2.
  std::vector<double> disp_sq(static_cast<size_t>(n), 0.0);
  for (int64_t i = 0; i < n; ++i) {
    disp_sq[i] = static_cast<double>(row_norm[i]) * row_norm[i];
  }
  for (int64_t r = 0; r < e; ++r) {
    const int64_t src = batch.edge_src[r], dst = batch.edge_dst[r];
    const float alpha = scores[r] / std::max(seg_sum[dst], 1e-12f);
    const double contrib = static_cast<double>(alpha) * row_norm[dst];
    disp_sq[src] += contrib * contrib;
  }
  // D_T consults the actual self-loop structure, matching ExactConstants
  // (Eq. 12 must agree between the two modes on graphs with self-loops).
  std::vector<uint8_t> has_self_loop(static_cast<size_t>(n), 0);
  int64_t node_offset = 0;
  for (const Graph* g : graphs) {
    for (int64_t v = 0; v < g->num_nodes(); ++v) {
      has_self_loop[node_offset + v] = g->HasEdge(v, v) ? 1 : 0;
    }
    node_offset += g->num_nodes();
  }
  std::vector<int64_t> deg = batch.Degrees();
  for (int64_t v = 0; v < n; ++v) {
    const float dt = NodeDropTopologyDistance(deg[v], has_self_loop[v] != 0);
    constants[v] = static_cast<float>(std::sqrt(disp_sq[v])) / dt;
  }
  return constants;
}

}  // namespace sgcl
