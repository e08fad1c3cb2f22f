#include "eval/evaluator.h"

#include "common/logging.h"
#include "graph/splits.h"

namespace sgcl {

MeanStd RunUnsupervisedProtocol(
    const std::function<std::unique_ptr<Pretrainer>(uint64_t seed)>&
        make_pretrainer,
    const GraphSource& source,
    const UnsupervisedProtocolOptions& options) {
  // Labels and embeddings for the SVM stage need every graph once; the
  // protocol holds them resident even for on-disk sources (the SVM is
  // dense in the graph count anyway).
  const std::vector<int> labels = source.Labels().value();
  std::vector<double> per_seed;
  per_seed.reserve(options.num_seeds);
  for (int s = 0; s < options.num_seeds; ++s) {
    const uint64_t seed = options.base_seed + 1000ULL * (s + 1);
    Rng rng(seed);
    std::unique_ptr<Pretrainer> method = make_pretrainer(seed);
    // Pretrain on (1 - test_fraction) of the graphs, unlabeled.
    HoldoutSplit split = TrainTestSplit(
        source.size(), 1.0 - options.pretrain_fraction, &rng);
    method->Pretrain(source, split.train);
    // Embed the whole source.
    const FetchedGraphs all = source.FetchAll().value();
    Tensor emb = method->EmbedGraphs(all.graphs());
    MeanStd cv = SvmCrossValidate(emb.values(), emb.rows(), emb.cols(),
                                  labels, source.num_classes(),
                                  options.cv_folds, &rng);
    per_seed.push_back(cv.mean);
    SGCL_LOG(DEBUG) << method->name() << " on " << source.name() << " seed "
                    << s << ": " << cv.mean;
  }
  return ComputeMeanStd(per_seed);
}

MeanStd RunUnsupervisedProtocol(
    const std::function<std::unique_ptr<Pretrainer>(uint64_t seed)>&
        make_pretrainer,
    const GraphDataset& dataset,
    const UnsupervisedProtocolOptions& options) {
  const InMemorySource source(&dataset);
  return RunUnsupervisedProtocol(make_pretrainer, source, options);
}

MeanStd RunKernelProtocol(const std::vector<double>& gram,
                          const GraphSource& source,
                          const UnsupervisedProtocolOptions& options) {
  const std::vector<int> labels = source.Labels().value();
  std::vector<double> per_seed;
  per_seed.reserve(options.num_seeds);
  for (int s = 0; s < options.num_seeds; ++s) {
    Rng rng(options.base_seed + 1000ULL * (s + 1));
    MeanStd cv = KernelSvmCrossValidate(gram, source.size(), labels,
                                        source.num_classes(),
                                        options.cv_folds, &rng);
    per_seed.push_back(cv.mean);
  }
  return ComputeMeanStd(per_seed);
}

MeanStd RunKernelProtocol(const std::vector<double>& gram,
                          const GraphDataset& dataset,
                          const UnsupervisedProtocolOptions& options) {
  const InMemorySource source(&dataset);
  return RunKernelProtocol(gram, source, options);
}

}  // namespace sgcl
