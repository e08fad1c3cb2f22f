#include "graph/splits.h"

#include <algorithm>
#include <map>

namespace sgcl {

std::vector<std::vector<int64_t>> StratifiedKFoldIndices(
    const std::vector<int>& labels, int k, Rng* rng) {
  SGCL_CHECK_GT(k, 1);
  SGCL_CHECK_GE(static_cast<int64_t>(labels.size()), k);
  SGCL_CHECK(rng != nullptr);
  std::map<int, std::vector<int64_t>> by_class;
  for (size_t i = 0; i < labels.size(); ++i) {
    SGCL_CHECK_GE(labels[i], 0);
    by_class[labels[i]].push_back(static_cast<int64_t>(i));
  }
  std::vector<std::vector<int64_t>> folds(k);
  // Round-robin each class's shuffled members across folds, rotating the
  // starting fold so small classes do not all land in fold 0.
  int64_t start = 0;
  for (auto& [cls, members] : by_class) {
    (void)cls;
    rng->Shuffle(&members);
    for (size_t i = 0; i < members.size(); ++i) {
      folds[(start + i) % k].push_back(members[i]);
    }
    start += static_cast<int64_t>(members.size());
  }
  return folds;
}

HoldoutSplit TrainTestSplit(int64_t n, double test_fraction, Rng* rng) {
  SGCL_CHECK_GT(n, 0);
  SGCL_CHECK(test_fraction > 0.0 && test_fraction < 1.0);
  SGCL_CHECK(rng != nullptr);
  std::vector<int64_t> perm(n);
  for (int64_t i = 0; i < n; ++i) perm[i] = i;
  rng->Shuffle(&perm);
  int64_t test_n = static_cast<int64_t>(test_fraction * static_cast<double>(n));
  test_n = std::clamp<int64_t>(test_n, 1, n - 1);
  HoldoutSplit split;
  split.test.assign(perm.begin(), perm.begin() + test_n);
  split.train.assign(perm.begin() + test_n, perm.end());
  return split;
}

ThreeWaySplit ScaffoldSplit(const GraphDataset& dataset, double train_fraction,
                            double valid_fraction) {
  SGCL_CHECK(train_fraction > 0.0 && valid_fraction >= 0.0 &&
             train_fraction + valid_fraction < 1.0);
  // Group indices by scaffold id; ungrouped graphs become singletons.
  std::map<int, std::vector<int64_t>> groups;
  int next_singleton = -2;  // negative ids below -1 for singletons
  for (int64_t i = 0; i < dataset.size(); ++i) {
    int id = dataset.graph(i).scaffold_id();
    if (id < 0) id = next_singleton--;
    groups[id].push_back(i);
  }
  std::vector<std::vector<int64_t>> ordered;
  ordered.reserve(groups.size());
  for (auto& [id, members] : groups) {
    (void)id;
    ordered.push_back(std::move(members));
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const auto& a, const auto& b) {
              if (a.size() != b.size()) return a.size() > b.size();
              return a.front() < b.front();  // deterministic tiebreak
            });
  const double n = static_cast<double>(dataset.size());
  const int64_t train_cap = static_cast<int64_t>(train_fraction * n);
  const int64_t valid_cap =
      static_cast<int64_t>((train_fraction + valid_fraction) * n);
  ThreeWaySplit split;
  int64_t placed = 0;
  for (const auto& group : ordered) {
    auto* bucket = placed < train_cap   ? &split.train
                   : placed < valid_cap ? &split.valid
                                        : &split.test;
    bucket->insert(bucket->end(), group.begin(), group.end());
    placed += static_cast<int64_t>(group.size());
  }
  return split;
}

std::vector<int64_t> LabelRateSubset(const std::vector<int>& labels,
                                     double rate, Rng* rng) {
  SGCL_CHECK(rate > 0.0 && rate <= 1.0);
  SGCL_CHECK(rng != nullptr);
  std::map<int, std::vector<int64_t>> by_class;
  for (size_t i = 0; i < labels.size(); ++i) {
    by_class[labels[i]].push_back(static_cast<int64_t>(i));
  }
  std::vector<int64_t> subset;
  for (auto& [cls, members] : by_class) {
    (void)cls;
    rng->Shuffle(&members);
    int64_t take = static_cast<int64_t>(
        rate * static_cast<double>(members.size()) + 0.5);
    take = std::clamp<int64_t>(take, 1,
                               static_cast<int64_t>(members.size()));
    subset.insert(subset.end(), members.begin(), members.begin() + take);
  }
  std::sort(subset.begin(), subset.end());
  return subset;
}

}  // namespace sgcl
