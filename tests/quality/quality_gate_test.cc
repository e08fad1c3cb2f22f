// Paper-level quality gate: SGCL and GraphCL pretrained on MUTAG- and
// PROTEINS-like data at Table III's ci-mode scale (bench/bench_util.h's
// BenchScale), scored by the unsupervised protocol's RBF-SVM
// cross-validation. Each cell is bench/table3_unsupervised's ci-mode
// cell itself: the same data seed, base seed and two training seeds.
//
// Training is bitwise-deterministic, so a cell reads one fixed value and
// moves only when a change moves the training trajectory. Each floor
// sits 2 points below the lowest value over ten base seeds (twenty
// trainings), rounded down to a whole percent; EXPERIMENTS.md ("A
// paper-level quality gate") lists every seed. A change that fails a
// floor has taken accuracy below every seed measured when the floors
// were set; one that moves the trajectory on purpose re-runs that sweep
// and re-sets the floors with it.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "eval/evaluator.h"
#include "gtest/gtest.h"

namespace sgcl {
namespace {

// Accuracy (%) of `method` on `which`, computed as table3_unsupervised
// computes its ci-mode cell: dataset d of AllTuDatasets() is generated
// from seed 100 + d and trained from base seed 10 * d.
double CiCellAccuracyPct(const std::string& method, TuDataset which) {
  const bench::BenchScale scale;
  const std::vector<TuDataset> all = AllTuDatasets();
  const auto d = static_cast<uint64_t>(
      std::find(all.begin(), all.end(), which) - all.begin());
  const GraphDataset ds = bench::MakeTu(which, scale, 100 + d);
  UnsupervisedProtocolOptions proto;
  proto.num_seeds = scale.seeds;
  proto.cv_folds = scale.cv_folds;
  proto.base_seed = 10 * d;
  const MeanStd acc = RunUnsupervisedProtocol(
      [&](uint64_t seed) {
        return bench::MakeMethod(method, ds.feat_dim(), scale, seed);
      },
      ds, proto);
  std::printf("quality gate: %s on %s = %.17g%%\n", method.c_str(),
              GetTuConfig(which).name.c_str(), 100.0 * acc.mean);
  return 100.0 * acc.mean;
}

TEST(QualityGateTest, SgclOnMutag) {
  EXPECT_GE(CiCellAccuracyPct("SGCL", TuDataset::kMutag), 86.0);
}

TEST(QualityGateTest, SgclOnProteins) {
  EXPECT_GE(CiCellAccuracyPct("SGCL", TuDataset::kProteins), 83.0);
}

TEST(QualityGateTest, GraphClOnMutag) {
  EXPECT_GE(CiCellAccuracyPct("GraphCL", TuDataset::kMutag), 85.0);
}

TEST(QualityGateTest, GraphClOnProteins) {
  EXPECT_GE(CiCellAccuracyPct("GraphCL", TuDataset::kProteins), 85.0);
}

}  // namespace
}  // namespace sgcl
