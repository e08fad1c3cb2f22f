// Lipschitz constant generator (paper §IV-B, Eq. 11-15).
//
// For each node v_r of a graph G, the per-node Lipschitz constant is
//   K_r = D_R(G, Ĝ_r) / D_T(G, Ĝ_r),
// where Ĝ_r is G with v_r masked out, D_R = ||H - Ĥ_r||_F over the f_q
// node representations (Eq. 12), and D_T = ||A - Â_r||_F (Eq. 5). Large
// K_r marks a semantic-related node: dropping it moves the representation
// a lot relative to the topology change.
//
// Two computation modes are provided:
//  * kExact — re-encodes the graph once per masked node (the paper's
//    Eq. 13-14 mask mechanism). GIN stacks, the paper's encoder, take the
//    fused tape-free kernel (nn/gin_inference.h): one base encode, then
//    per view only the L-hop ball around the masked node is recomputed.
//    Every other encoder runs the per-node reference below, one full
//    encoder pass per view.
//  * kAttentionApprox — the paper's other §V optimization: one encoder
//    pass, plus attention weights that estimate each node's contribution
//    to its neighbors' representations, removed in closed form.
//
// Constants are computed outside the autograd tape (they parameterize the
// augmentation, Eq. 18, and the anchor pooling, Eq. 21, as fixed scores).
#ifndef SGCL_CORE_LIPSCHITZ_GENERATOR_H_
#define SGCL_CORE_LIPSCHITZ_GENERATOR_H_

#include <vector>

#include "graph/graph.h"
#include "graph/graph_batch.h"
#include "nn/encoder.h"

namespace sgcl {

enum class LipschitzMode { kExact, kAttentionApprox };

// Topology distance of dropping node r: ||A - Â_r||_F = sqrt(2 deg(r)
// - [self-loop]). Guarded below by 1 so isolated nodes (which the paper
// leaves undefined) get K_r = D_R.
float NodeDropTopologyDistance(int64_t degree, bool has_self_loop);

class LipschitzGenerator {
 public:
  // `encoder` is the generator GNN f_q; not owned, must outlive this.
  LipschitzGenerator(const GnnEncoder* encoder, LipschitzMode mode);

  // Per-node Lipschitz constants for every node of every graph,
  // concatenated in batch order (same layout as GraphBatch node ids).
  // Exact mode parallelizes across graphs on the shared thread pool.
  std::vector<float> ComputeConstants(
      const std::vector<const Graph*>& graphs) const;

  // Single-graph convenience.
  std::vector<float> ComputeConstants(const Graph& graph) const;

  // The naive exact path — one full encoder pass per node, no batching,
  // no threading. It is the exact path for non-GIN encoders, and the
  // golden oracle for GIN's fused kernel in tests and lipschitz_bench.
  std::vector<float> ExactConstantsReference(const Graph& graph) const;

  LipschitzMode mode() const { return mode_; }

 private:
  std::vector<float> ExactConstants(const Graph& graph) const;
  std::vector<float> ApproxConstants(
      const std::vector<const Graph*>& graphs) const;

  const GnnEncoder* encoder_;
  LipschitzMode mode_;
};

}  // namespace sgcl

#endif  // SGCL_CORE_LIPSCHITZ_GENERATOR_H_
