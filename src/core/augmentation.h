// Lipschitz graph augmentation (paper §IV-C, Eq. 16-20).
//
// Given per-node Lipschitz constants K_V, each graph's mean K̄ binarizes
// nodes into semantic-related (C_i = 1) and semantic-unrelated (C_i = 0)
// (Eq. 16-17). The preservation probability of node i is
//   P(v_i) = C_i + (1 - C_i) * sigmoid(h_i w^T)           (Eq. 18)
// so semantic-related nodes are always kept and unrelated ones are kept
// with a learned probability. The sample view Ĝ (Eq. 19) drops
// rho * |{C_i = 0}| unrelated nodes weighted by 1 - P; the complement
// view Ĝ^c (Eq. 20) inverts the probabilities, keeping unrelated nodes
// and dropping related ones.
//
// Note on rho: the paper defines Φ(G, rho|V|, P(V)) with rho = 0.9 best,
// and §VI-D explains that a *large* rho is preferred "because the
// semantic-unrelated nodes also contribute to the model pre-training" —
// i.e. rho is a preservation ratio. The sample view therefore drops
// (1 - rho)|V| nodes, all drawn from the semantic-unrelated set, which
// reproduces both the flat sensitivity curve and the "only unrelated
// nodes are dropped" invariant. The complement view's purpose is the
// opposite — destroy the semantics to build a negative — so it drops
// rho of the semantic-related nodes. See DESIGN.md.
#ifndef SGCL_CORE_AUGMENTATION_H_
#define SGCL_CORE_AUGMENTATION_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "graph/graph.h"
#include "graph/graph_batch.h"

namespace sgcl {

// How contrastive views are built (the Table V ablation axis).
enum class AugmentationMode {
  kLipschitz,      // full SGCL: Lipschitz binarization + learned probs
  kLearnableOnly,  // "w/o LGA": learned keep probabilities, no binarization
  kRandom,         // "w/o VG": uniform random node dropping
};

struct AugmentationPlan {
  // 1 = node is kept in the sample view Ĝ.
  std::vector<uint8_t> keep_sample;
  // 1 = node is kept in the complement view Ĝ^c.
  std::vector<uint8_t> keep_complement;
  // Binary Lipschitz constants C_i (Eq. 17); all 1 when binarization is
  // disabled.
  std::vector<uint8_t> binary_semantic;
  // Preservation probabilities P(v_i) (Eq. 18), detached values.
  std::vector<float> preserve_prob;
};

// Builds the per-node keep decisions for one graph.
//   lipschitz:   K_V for the graph's nodes (ignored for kRandom).
//   learned_keep: sigmoid(h_i w^T) values in [0,1] (ignored for kRandom).
//   rho:         fraction of eligible nodes to drop.
// For kRandom, rho of all nodes are dropped uniformly and the complement
// view is an independent random drop.
AugmentationPlan BuildAugmentationPlan(const std::vector<float>& lipschitz,
                                       const std::vector<float>& learned_keep,
                                       AugmentationMode mode, double rho,
                                       Rng* rng);

// Mean-threshold binarization (Eq. 16-17) as a standalone helper.
std::vector<uint8_t> BinarizeLipschitz(const std::vector<float>& lipschitz);

// A masked copy of `batch`: features of dropped nodes are zeroed and all
// their incident edges removed. Node count and graph segmentation are
// unchanged so views stay aligned with the anchor batch; combined with
// mask-weighted pooling this encodes exactly the induced subgraph.
GraphBatch MaskBatch(const GraphBatch& batch,
                     const std::vector<uint8_t>& keep);

}  // namespace sgcl

#endif  // SGCL_CORE_AUGMENTATION_H_
