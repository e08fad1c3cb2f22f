#include "graph/splits.h"

#include <algorithm>
#include <map>
#include <set>

#include "gtest/gtest.h"
#include "test_util.h"

namespace sgcl {
namespace {

TEST(StratifiedKFoldTest, PreservesClassBalance) {
  Rng rng(2);
  // 40 of class 0, 20 of class 1.
  std::vector<int> labels;
  for (int i = 0; i < 40; ++i) labels.push_back(0);
  for (int i = 0; i < 20; ++i) labels.push_back(1);
  auto folds = StratifiedKFoldIndices(labels, 4, &rng);
  std::set<int64_t> all;
  for (const auto& f : folds) {
    int c0 = 0, c1 = 0;
    for (int64_t i : f) {
      (labels[i] == 0 ? c0 : c1)++;
      all.insert(i);
    }
    EXPECT_EQ(c0, 10);
    EXPECT_EQ(c1, 5);
  }
  EXPECT_EQ(all.size(), 60u);
}

// More folds than labels would leave a fold empty, and an empty test
// fold scores 0/0.
TEST(StratifiedKFoldTest, MoreFoldsThanLabelsAborts) {
  Rng rng(4);
  const std::vector<int> labels = {0, 1, 0};
  EXPECT_DEATH(StratifiedKFoldIndices(labels, 4, &rng), "SGCL_CHECK failed");
}

TEST(TrainTestSplitTest, FractionsAndDisjointness) {
  Rng rng(3);
  auto split = TrainTestSplit(100, 0.1, &rng);
  EXPECT_EQ(split.test.size(), 10u);
  EXPECT_EQ(split.train.size(), 90u);
  std::set<int64_t> test_set(split.test.begin(), split.test.end());
  for (int64_t i : split.train) EXPECT_FALSE(test_set.count(i));
}

TEST(TrainTestSplitTest, AlwaysLeavesBothSidesNonEmpty) {
  Rng rng(4);
  auto split = TrainTestSplit(3, 0.01, &rng);
  EXPECT_GE(split.test.size(), 1u);
  EXPECT_GE(split.train.size(), 1u);
}

GraphDataset ScaffoldDataset() {
  GraphDataset ds("sc", 2);
  // 10 graphs: scaffolds sized 4, 3, 2, 1.
  const int scaffold_of[10] = {0, 0, 0, 0, 1, 1, 1, 2, 2, 3};
  for (int i = 0; i < 10; ++i) {
    Graph g = testing::PathGraph3(2);
    g.set_label(i % 2);
    g.set_scaffold_id(scaffold_of[i]);
    ds.Add(std::move(g));
  }
  return ds;
}

TEST(ScaffoldSplitTest, GroupsNeverStraddleSplits) {
  GraphDataset ds = ScaffoldDataset();
  auto split = ScaffoldSplit(ds, 0.5, 0.2);
  auto side_of = [&](int64_t i) {
    if (std::count(split.train.begin(), split.train.end(), i)) return 0;
    if (std::count(split.valid.begin(), split.valid.end(), i)) return 1;
    return 2;
  };
  std::map<int, int> scaffold_side;
  for (int64_t i = 0; i < ds.size(); ++i) {
    const int sc = ds.graph(i).scaffold_id();
    const int side = side_of(i);
    auto [it, inserted] = scaffold_side.emplace(sc, side);
    if (!inserted) {
      EXPECT_EQ(it->second, side) << "scaffold " << sc;
    }
  }
  EXPECT_EQ(split.train.size() + split.valid.size() + split.test.size(), 10u);
  EXPECT_FALSE(split.train.empty());
  EXPECT_FALSE(split.test.empty());
}

TEST(ScaffoldSplitTest, LargestGroupsGoToTrain) {
  GraphDataset ds = ScaffoldDataset();
  auto split = ScaffoldSplit(ds, 0.5, 0.2);
  // Scaffold 0 (size 4) must be in train.
  for (int64_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(std::count(split.train.begin(), split.train.end(), i));
  }
}

TEST(ScaffoldSplitTest, DeterministicAcrossCalls) {
  GraphDataset ds = ScaffoldDataset();
  auto a = ScaffoldSplit(ds, 0.6, 0.2);
  auto b = ScaffoldSplit(ds, 0.6, 0.2);
  EXPECT_EQ(a.train, b.train);
  EXPECT_EQ(a.valid, b.valid);
  EXPECT_EQ(a.test, b.test);
}

TEST(LabelRateSubsetTest, TakesRequestedRatePerClass) {
  Rng rng(5);
  std::vector<int> labels;
  for (int i = 0; i < 200; ++i) labels.push_back(i < 100 ? 0 : 1);
  auto subset = LabelRateSubset(labels, 0.1, &rng);
  int c0 = 0, c1 = 0;
  for (int64_t i : subset) (labels[i] == 0 ? c0 : c1)++;
  EXPECT_EQ(c0, 10);
  EXPECT_EQ(c1, 10);
}

TEST(LabelRateSubsetTest, AtLeastOnePerClass) {
  Rng rng(6);
  std::vector<int> labels = {0, 0, 0, 0, 0, 0, 0, 0, 0, 1};
  auto subset = LabelRateSubset(labels, 0.01, &rng);
  std::set<int> classes;
  for (int64_t i : subset) classes.insert(labels[i]);
  EXPECT_EQ(classes.size(), 2u);
}

}  // namespace
}  // namespace sgcl
