#include "graph/graph_source.h"

#include "gtest/gtest.h"
#include "test_util.h"

namespace sgcl {
namespace {

GraphDataset SmallDataset() {
  GraphDataset ds("toy", /*num_classes=*/2);
  for (int i = 0; i < 6; ++i) {
    Graph g = i % 2 == 0 ? testing::PathGraph3(4) : testing::HouseGraph(4);
    g.set_label(i % 2);
    ds.Add(std::move(g));
  }
  return ds;
}

TEST(InMemorySourceTest, MirrorsDatasetMetadata) {
  GraphDataset ds = SmallDataset();
  InMemorySource source(&ds);
  EXPECT_EQ(source.name(), "toy");
  EXPECT_EQ(source.num_classes(), 2);
  EXPECT_EQ(source.num_tasks(), 1);
  EXPECT_EQ(source.size(), 6);
  EXPECT_EQ(source.FeatDim().value(), 4);
}

TEST(InMemorySourceTest, FetchBorrowsPointersInOrder) {
  GraphDataset ds = SmallDataset();
  InMemorySource source(&ds);
  FetchedGraphs out;
  const std::vector<int64_t> idx = {4, 0, 2};
  ASSERT_TRUE(source.Fetch(idx, &out).ok());
  ASSERT_EQ(out.size(), 3u);
  // Zero-copy: pointers are the dataset's own graphs.
  EXPECT_EQ(out.graphs()[0], &ds.graph(4));
  EXPECT_EQ(out.graphs()[1], &ds.graph(0));
  EXPECT_EQ(out.graphs()[2], &ds.graph(2));
}

TEST(InMemorySourceTest, FetchRejectsOutOfRange) {
  GraphDataset ds = SmallDataset();
  InMemorySource source(&ds);
  FetchedGraphs out;
  const std::vector<int64_t> bad = {0, 6};
  EXPECT_EQ(source.Fetch(bad, &out).code(), StatusCode::kOutOfRange);
  const std::vector<int64_t> neg = {-1};
  EXPECT_EQ(source.Fetch(neg, &out).code(), StatusCode::kOutOfRange);
}

TEST(InMemorySourceTest, LabelsMatchDataset) {
  GraphDataset ds = SmallDataset();
  InMemorySource source(&ds);
  EXPECT_EQ(source.Labels().value(), ds.Labels().value());
}

TEST(InMemorySourceTest, FetchAllCoversEveryGraph) {
  GraphDataset ds = SmallDataset();
  InMemorySource source(&ds);
  const FetchedGraphs all = source.FetchAll().value();
  ASSERT_EQ(all.size(), 6u);
  for (int64_t i = 0; i < 6; ++i) {
    EXPECT_EQ(all.graphs()[i], &ds.graph(i));
  }
}

TEST(InMemorySourceTest, EmptySourceFailsChecked) {
  GraphDataset ds("empty", 2);
  InMemorySource source(&ds);
  EXPECT_EQ(source.FeatDim().status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(source.Labels().status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(InMemorySourceTest, DefaultFetchBlocksIsOneRange) {
  GraphDataset ds = SmallDataset();
  InMemorySource source(&ds);
  const std::vector<IndexRange> blocks = source.FetchBlocks();
  ASSERT_EQ(blocks.size(), 1u);
  EXPECT_EQ(blocks[0].begin, 0);
  EXPECT_EQ(blocks[0].end, 6);
}

TEST(InMemorySourceTest, FingerprintIsStableAndContentSensitive) {
  GraphDataset a = SmallDataset();
  GraphDataset b = SmallDataset();
  InMemorySource sa(&a);
  InMemorySource sb(&b);
  EXPECT_NE(sa.ContentFingerprint(), 0u);
  EXPECT_EQ(sa.ContentFingerprint(), sb.ContentFingerprint());

  GraphDataset c = SmallDataset();
  Graph extra = testing::PathGraph3(4);
  extra.set_label(0);
  c.Add(std::move(extra));
  InMemorySource sc(&c);
  EXPECT_NE(sa.ContentFingerprint(), sc.ContentFingerprint());
}

}  // namespace
}  // namespace sgcl
