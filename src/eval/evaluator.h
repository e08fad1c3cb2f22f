// End-to-end evaluation protocols matching the paper's §VI-A.
#ifndef SGCL_EVAL_EVALUATOR_H_
#define SGCL_EVAL_EVALUATOR_H_

#include <functional>
#include <memory>
#include <vector>

#include "baselines/pretrainer.h"
#include "eval/cross_validation.h"
#include "graph/graph_source.h"

namespace sgcl {

struct UnsupervisedProtocolOptions {
  double pretrain_fraction = 0.9;  // unlabeled pretraining share
  int cv_folds = 10;
  int num_seeds = 5;  // paper repeats 5 seeds and averages
  uint64_t base_seed = 0;
};

// Unsupervised protocol (Table III): per seed, pretrain on 90% of the
// graphs, embed the full source, run a 10-fold RBF-SVM CV on the
// embeddings; aggregate mean/std over seeds. `make_pretrainer` builds a
// fresh method instance for a given seed. The source may be in-memory or
// a sharded on-disk store; batches stream through GraphSource::Fetch.
MeanStd RunUnsupervisedProtocol(
    const std::function<std::unique_ptr<Pretrainer>(uint64_t seed)>&
        make_pretrainer,
    const GraphSource& source, const UnsupervisedProtocolOptions& options);

// In-memory convenience overload (borrowing InMemorySource for the call).
MeanStd RunUnsupervisedProtocol(
    const std::function<std::unique_ptr<Pretrainer>(uint64_t seed)>&
        make_pretrainer,
    const GraphDataset& dataset, const UnsupervisedProtocolOptions& options);

// Graph-kernel protocol: a kernel SVM CV on the precomputed Gram matrix,
// repeated over fold seeds.
MeanStd RunKernelProtocol(const std::vector<double>& gram,
                          const GraphSource& source,
                          const UnsupervisedProtocolOptions& options);

MeanStd RunKernelProtocol(const std::vector<double>& gram,
                          const GraphDataset& dataset,
                          const UnsupervisedProtocolOptions& options);

}  // namespace sgcl

#endif  // SGCL_EVAL_EVALUATOR_H_
