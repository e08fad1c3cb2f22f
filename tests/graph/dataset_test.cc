#include "graph/dataset.h"

#include "gtest/gtest.h"
#include "test_util.h"

namespace sgcl {
namespace {

GraphDataset TwoGraphDataset() {
  GraphDataset ds("toy", /*num_classes=*/2);
  Graph a = testing::PathGraph3(3);
  a.set_label(0);
  Graph b = testing::HouseGraph(3);
  b.set_label(1);
  ds.Add(std::move(a));
  ds.Add(std::move(b));
  return ds;
}

TEST(DatasetTest, BasicAccessors) {
  GraphDataset ds = TwoGraphDataset();
  EXPECT_EQ(ds.name(), "toy");
  EXPECT_EQ(ds.size(), 2);
  EXPECT_EQ(ds.num_classes(), 2);
  EXPECT_EQ(ds.feat_dim(), 3);
  EXPECT_EQ(ds.Labels().value(), (std::vector<int>{0, 1}));
}

TEST(DatasetTest, Stats) {
  GraphDataset ds = TwoGraphDataset();
  DatasetStats s = ds.Stats();
  EXPECT_EQ(s.num_graphs, 2);
  EXPECT_DOUBLE_EQ(s.avg_nodes, 4.0);       // (3 + 5) / 2
  EXPECT_DOUBLE_EQ(s.avg_edges, 4.0);       // (2 + 6) / 2
}

TEST(DatasetTest, ValidatePassesAndCatchesBadLabel) {
  GraphDataset ds = TwoGraphDataset();
  EXPECT_TRUE(ds.Validate().ok());
  Graph bad = testing::PathGraph3(3);
  bad.set_label(5);  // outside [0, 2)
  ds.Add(std::move(bad));
  EXPECT_FALSE(ds.Validate().ok());
}

TEST(DatasetTest, TryAddRejectsFeatDimMismatch) {
  GraphDataset ds = TwoGraphDataset();
  Graph other = testing::PathGraph3(7);
  other.set_label(0);
  const Status st = ds.TryAdd(std::move(other));
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  // The mismatched graph was rejected, so the dataset stays valid.
  EXPECT_EQ(ds.size(), 2);
  EXPECT_TRUE(ds.Validate().ok());
}

TEST(DatasetTest, TryAddAcceptsMatchingFeatDim) {
  GraphDataset ds = TwoGraphDataset();
  Graph ok = testing::PathGraph3(3);
  ok.set_label(0);
  EXPECT_TRUE(ds.TryAdd(std::move(ok)).ok());
  EXPECT_EQ(ds.size(), 3);
}

TEST(DatasetTest, FeatDimOnEmptyIsCheckedError) {
  GraphDataset ds("empty", /*num_classes=*/2);
  const Result<int64_t> fd = ds.FeatDim();
  EXPECT_EQ(fd.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(ds.Labels().status().code(), StatusCode::kFailedPrecondition);
}

TEST(DatasetTest, FeatDimMatchesFirstGraph) {
  GraphDataset ds = TwoGraphDataset();
  EXPECT_EQ(ds.FeatDim().value(), 3);
}

TEST(DatasetTest, MultiTaskValidation) {
  GraphDataset ds("mt", /*num_classes=*/2, /*num_tasks=*/3);
  Graph g = testing::PathGraph3(2);
  g.set_task_labels({1.0f, -1.0f, 0.0f});  // -1 = missing
  ds.Add(std::move(g));
  EXPECT_TRUE(ds.Validate().ok());
  Graph bad = testing::PathGraph3(2);
  bad.set_task_labels({1.0f});  // wrong task count
  ds.Add(std::move(bad));
  EXPECT_FALSE(ds.Validate().ok());
}

}  // namespace
}  // namespace sgcl
