// MicroBatcher unit tests: a lone request runs at once, requests queued
// behind a forward coalesce, FIFO no-overtake batch closing, cap
// enforcement, overload rejection, stop draining, and error propagation.
// Tests that need a queue hold the first forward with a gate and wait on
// the queue_depth gauge instead of sleeping.
#include "serve/batcher.h"

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/batch_gate.h"

namespace sgcl {
namespace serve {
namespace {

std::vector<Graph> MakeGraphs(int count, int64_t nodes_each) {
  std::vector<Graph> graphs;
  for (int i = 0; i < count; ++i) {
    Graph g(nodes_each, /*feat_dim=*/2);
    for (int64_t v = 0; v + 1 < nodes_each; ++v) g.AddUndirectedEdge(v, v + 1);
    graphs.push_back(std::move(g));
  }
  return graphs;
}

// BatchFn returning row i = {graph i's node count} so callers can verify
// both slicing and FIFO order.
Status NodeCountFn(const std::vector<const Graph*>& graphs,
                   std::vector<std::vector<float>>* rows) {
  for (const Graph* g : graphs) {
    rows->push_back({static_cast<float>(g->num_nodes())});
  }
  return Status::OK();
}

TEST(MicroBatcherTest, SingleRequestRunsAtOnce) {
  MicroBatcherOptions options;
  options.max_batch_graphs = 64;
  MicroBatcher batcher("t_single", options, NodeCountFn);
  ASSERT_TRUE(batcher.Start().ok());
  const std::vector<Graph> graphs = MakeGraphs(3, 5);
  auto rows = batcher.Submit(graphs);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->size(), 3u);
  for (const auto& row : *rows) {
    ASSERT_EQ(row.size(), 1u);
    EXPECT_EQ(row[0], 5.0f);
  }
  EXPECT_EQ(batcher.batches_executed(), 1);
  batcher.Stop();
}

TEST(MicroBatcherTest, ConcurrentRequestsCoalesce) {
  MicroBatcherOptions options;
  options.max_batch_graphs = 64;
  options.max_batch_nodes = 1 << 20;
  FirstForwardGate gate;
  MicroBatcher batcher("t_coalesce", options, gate.Wrap(NodeCountFn));
  ASSERT_TRUE(batcher.Start().ok());

  constexpr int kRequests = 6;
  std::vector<std::vector<Graph>> inputs;
  for (int i = 0; i < kRequests; ++i) inputs.push_back(MakeGraphs(2, 4));
  std::atomic<int> ok_count{0};
  auto submit = [&](int i) {
    auto rows = batcher.Submit(inputs[i]);
    if (rows.ok() && rows->size() == 2u) ok_count.fetch_add(1);
  };
  std::vector<std::thread> threads;
  threads.emplace_back(submit, 0);
  gate.WaitEntered();  // request 0 runs alone and holds the dispatch thread
  for (int i = 1; i < kRequests; ++i) threads.emplace_back(submit, i);
  WaitForQueueDepth("t_coalesce", kRequests - 1);
  gate.Open();
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(ok_count.load(), kRequests);
  // The five requests that queued behind the first forward ran together.
  EXPECT_EQ(batcher.batches_executed(), 2);
  batcher.Stop();
}

TEST(MicroBatcherTest, GraphCapClosesBatch) {
  MicroBatcherOptions options;
  options.max_batch_graphs = 2;
  std::mutex mu;
  std::vector<size_t> batch_sizes;
  FirstForwardGate gate;
  auto fn = gate.Wrap([&](const std::vector<const Graph*>& graphs,
                          std::vector<std::vector<float>>* rows) {
    {
      std::lock_guard<std::mutex> lock(mu);
      batch_sizes.push_back(graphs.size());
    }
    return NodeCountFn(graphs, rows);
  });
  MicroBatcher batcher("t_graph_cap", options, fn);
  ASSERT_TRUE(batcher.Start().ok());
  constexpr int kRequests = 4;
  std::vector<std::vector<Graph>> inputs;
  for (int i = 0; i < kRequests; ++i) inputs.push_back(MakeGraphs(1, 3));
  auto submit = [&](int i) { (void)batcher.Submit(inputs[i]); };
  std::vector<std::thread> threads;
  threads.emplace_back(submit, 0);
  gate.WaitEntered();
  for (int i = 1; i < kRequests; ++i) threads.emplace_back(submit, i);
  WaitForQueueDepth("t_graph_cap", kRequests - 1);
  gate.Open();
  for (std::thread& t : threads) t.join();
  batcher.Stop();
  // Request 0 ran alone; of the three queued behind it, the cap closed
  // the next batch at two graphs and the third ran last.
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(batch_sizes, (std::vector<size_t>{1, 2, 1}));
}

TEST(MicroBatcherTest, OversizedRequestStillRunsAlone) {
  MicroBatcherOptions options;
  options.max_batch_graphs = 64;
  options.max_batch_nodes = 4;  // each 10-node graph exceeds the cap
  MicroBatcher batcher("t_oversized", options, NodeCountFn);
  ASSERT_TRUE(batcher.Start().ok());
  // A single graph above max_batch_nodes is indivisible: it must still
  // be served (alone, as its own forward) rather than rejected.
  const std::vector<Graph> graphs = MakeGraphs(1, 10);
  auto rows = batcher.Submit(graphs);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ((*rows)[0][0], 10.0f);
  EXPECT_EQ(batcher.batches_executed(), 1);
  batcher.Stop();
}

TEST(MicroBatcherTest, CapsSplitOversizedRequestsAcrossForwards) {
  // The caps bound every forward, not just batch formation: a 6-graph
  // request under max_batch_graphs=1 must execute as 6 single-graph
  // forwards (this is what makes a --max-batch-graphs=1 server an honest
  // batch-size-1 baseline), and results still arrive in request order.
  MicroBatcherOptions options;
  options.max_batch_graphs = 1;
  std::mutex mu;
  std::vector<size_t> forward_sizes;
  auto fn = [&](const std::vector<const Graph*>& graphs,
                std::vector<std::vector<float>>* rows) {
    {
      std::lock_guard<std::mutex> lock(mu);
      forward_sizes.push_back(graphs.size());
    }
    return NodeCountFn(graphs, rows);
  };
  MicroBatcher batcher("t_split", options, fn);
  ASSERT_TRUE(batcher.Start().ok());
  const std::vector<Graph> graphs = MakeGraphs(6, 3);
  auto rows = batcher.Submit(graphs);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->size(), 6u);
  for (const auto& row : *rows) EXPECT_EQ(row[0], 3.0f);
  EXPECT_EQ(batcher.batches_executed(), 6);
  {
    std::lock_guard<std::mutex> lock(mu);
    ASSERT_EQ(forward_sizes.size(), 6u);
    for (const size_t s : forward_sizes) EXPECT_EQ(s, 1u);
  }
  batcher.Stop();
}

TEST(MicroBatcherTest, NodeCapSplitsMixedRequest) {
  // 3-node graphs under max_batch_nodes=7: forwards hold two graphs
  // (6 nodes; a third would exceed the cap), so 5 graphs -> 3 forwards.
  MicroBatcherOptions options;
  options.max_batch_graphs = 64;
  options.max_batch_nodes = 7;
  MicroBatcher batcher("t_nodecap", options, NodeCountFn);
  ASSERT_TRUE(batcher.Start().ok());
  const std::vector<Graph> graphs = MakeGraphs(5, 3);
  auto rows = batcher.Submit(graphs);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->size(), 5u);
  EXPECT_EQ(batcher.batches_executed(), 3);
  batcher.Stop();
}

TEST(MicroBatcherTest, RejectsWhenQueueFullAndWhenStopped) {
  MicroBatcherOptions options;
  options.max_queue_requests = 1;
  // Hold the dispatch thread inside the batch function so the queue
  // backs up deterministically.
  FirstForwardGate gate;
  MicroBatcher batcher("t_overload", options, gate.Wrap(NodeCountFn));
  ASSERT_TRUE(batcher.Start().ok());

  const std::vector<Graph> a = MakeGraphs(1, 3);
  const std::vector<Graph> b = MakeGraphs(1, 3);
  const std::vector<Graph> c = MakeGraphs(1, 3);
  std::thread blocker([&] { (void)batcher.Submit(a); });
  gate.WaitEntered();  // dispatch is now stuck in fn(a)
  std::thread queued([&] {
    auto rows = batcher.Submit(b);  // fills the 1-slot queue
    EXPECT_TRUE(rows.ok());
  });
  // Wait until b is actually queued before overflowing.
  WaitForQueueDepth("t_overload", 1);
  auto rejected = batcher.Submit(c);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kUnavailable);

  gate.Open();
  blocker.join();
  queued.join();
  batcher.Stop();

  // After Stop every Submit is refused.
  auto after_stop = batcher.Submit(a);
  ASSERT_FALSE(after_stop.ok());
  EXPECT_EQ(after_stop.status().code(), StatusCode::kUnavailable);
}

TEST(MicroBatcherTest, BatchFnErrorReachesEveryCaller) {
  MicroBatcherOptions options;
  auto fn = [](const std::vector<const Graph*>&,
               std::vector<std::vector<float>>*) {
    return Status::InvalidArgument("model rejected the batch");
  };
  MicroBatcher batcher("t_error", options, fn);
  ASSERT_TRUE(batcher.Start().ok());
  const std::vector<Graph> graphs = MakeGraphs(2, 3);
  auto rows = batcher.Submit(graphs);
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kInvalidArgument);
  batcher.Stop();
}

TEST(MicroBatcherTest, RowCountMismatchIsInternalError) {
  MicroBatcherOptions options;
  auto fn = [](const std::vector<const Graph*>&,
               std::vector<std::vector<float>>* rows) {
    rows->push_back({1.0f});  // always one row, regardless of batch size
    return Status::OK();
  };
  MicroBatcher batcher("t_mismatch", options, fn);
  ASSERT_TRUE(batcher.Start().ok());
  const std::vector<Graph> graphs = MakeGraphs(2, 3);
  auto rows = batcher.Submit(graphs);
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kInternal);
  batcher.Stop();
}

TEST(MicroBatcherTest, EmptySubmitIsInvalidAndStopIsIdempotent) {
  MicroBatcherOptions options;
  MicroBatcher batcher("t_empty", options, NodeCountFn);
  ASSERT_TRUE(batcher.Start().ok());
  auto rows = batcher.Submit({});
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kInvalidArgument);
  batcher.Stop();
  batcher.Stop();  // no-op
}

}  // namespace
}  // namespace serve
}  // namespace sgcl
