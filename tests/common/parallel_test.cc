#include "common/parallel.h"

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace sgcl {
namespace {

// Restores the default (SGCL_NUM_THREADS / hardware) pool after each test
// so thread-count overrides never leak across tests.
class ParallelForTest : public ::testing::Test {
 protected:
  ~ParallelForTest() override { SetParallelThreads(0); }
};
using ThreadPoolTest = ParallelForTest;

TEST(ParseThreadCountTest, AcceptsPositiveIntegers) {
  ASSERT_TRUE(ParseThreadCount("1").ok());
  EXPECT_EQ(*ParseThreadCount("1"), 1);
  EXPECT_EQ(*ParseThreadCount("64"), 64);
}

TEST(ParseThreadCountTest, RejectsNonNumeric) {
  EXPECT_FALSE(ParseThreadCount("").ok());
  EXPECT_FALSE(ParseThreadCount("abc").ok());
  EXPECT_FALSE(ParseThreadCount("4abc").ok());
  EXPECT_FALSE(ParseThreadCount("4.5").ok());
}

TEST(ParseThreadCountTest, RejectsZeroAndNegative) {
  EXPECT_FALSE(ParseThreadCount("0").ok());
  const auto negative = ParseThreadCount("-2");
  ASSERT_FALSE(negative.ok());
  EXPECT_EQ(negative.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(negative.status().message().find("positive"), std::string::npos);
}

TEST(ParseThreadCountTest, RejectsOverflow) {
  // Larger than both int and long.
  EXPECT_FALSE(ParseThreadCount("99999999999999999999999").ok());
  EXPECT_FALSE(ParseThreadCount("2147483648").ok());  // INT_MAX + 1
  // Counts that fit an int but would spawn that many threads.
  EXPECT_FALSE(ParseThreadCount("2147483647").ok());
  EXPECT_FALSE(ParseThreadCount(std::to_string(kMaxThreadCount + 1)).ok());
  EXPECT_EQ(*ParseThreadCount(std::to_string(kMaxThreadCount)),
            kMaxThreadCount);
}

TEST_F(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::atomic<int> done{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&done] { done.fetch_add(1); });
  }
  while (done.load() < 100) std::this_thread::yield();
  EXPECT_EQ(done.load(), 100);
}

TEST_F(ThreadPoolTest, SizeClampedToAtLeastOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1);
  std::atomic<bool> ran{false};
  pool.Submit([&ran] { ran.store(true); });
  while (!ran.load()) std::this_thread::yield();
}

TEST_F(ParallelForTest, CoversRangeExactlyOnce) {
  SetParallelThreads(4);
  std::vector<int> hits(1000, 0);
  ParallelFor(0, 1000, 1, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) ++hits[i];
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST_F(ParallelForTest, EmptyRangeDoesNotInvokeBody) {
  SetParallelThreads(4);
  int calls = 0;
  ParallelFor(5, 5, 1, [&](int64_t, int64_t) { ++calls; });
  ParallelFor(7, 3, 1, [&](int64_t, int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST_F(ParallelForTest, GrainEqualToRangeRunsInlineOnCallingThread) {
  SetParallelThreads(4);
  const std::thread::id caller = std::this_thread::get_id();
  int calls = 0;
  std::thread::id body_thread;
  ParallelFor(0, 64, 64, [&](int64_t lo, int64_t hi) {
    ++calls;
    body_thread = std::this_thread::get_id();
    EXPECT_EQ(lo, 0);
    EXPECT_EQ(hi, 64);
  });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(body_thread, caller);
}

TEST_F(ParallelForTest, SingleThreadPoolRunsInline) {
  SetParallelThreads(1);
  const std::thread::id caller = std::this_thread::get_id();
  int calls = 0;
  ParallelFor(0, 1000, 1, [&](int64_t lo, int64_t hi) {
    ++calls;
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_EQ(lo, 0);
    EXPECT_EQ(hi, 1000);
  });
  EXPECT_EQ(calls, 1);
}

TEST_F(ParallelForTest, ExceptionsPropagateToCaller) {
  SetParallelThreads(4);
  EXPECT_THROW(ParallelFor(0, 1000, 1,
                           [](int64_t, int64_t) {
                             throw std::runtime_error("chunk failed");
                           }),
               std::runtime_error);
  // The pool stays usable after a throwing parallel section.
  std::vector<int> hits(100, 0);
  ParallelFor(0, 100, 1, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) ++hits[i];
  });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 100);
}

TEST_F(ParallelForTest, ExceptionFromSingleChunkPropagates) {
  SetParallelThreads(4);
  EXPECT_THROW(ParallelFor(0, 8, 1,
                           [](int64_t lo, int64_t) {
                             if (lo == 0) {
                               throw std::runtime_error("first chunk");
                             }
                           }),
               std::runtime_error);
}

TEST_F(ParallelForTest, NestedCallsRunInlineWithoutDeadlock) {
  SetParallelThreads(4);
  std::vector<int> hits(64 * 64, 0);
  ParallelFor(0, 64, 1, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      ParallelFor(0, 64, 1, [&, i](int64_t jlo, int64_t jhi) {
        for (int64_t j = jlo; j < jhi; ++j) ++hits[i * 64 + j];
      });
    }
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

// Row-partitioned reductions must not depend on the worker count: each
// chunk owns disjoint output rows and accumulates in ascending index
// order within a row.
TEST_F(ParallelForTest, RowPartitionedResultIndependentOfThreadCount) {
  const int64_t rows = 37, cols = 101;
  std::vector<float> input(static_cast<size_t>(rows * cols));
  for (size_t i = 0; i < input.size(); ++i) {
    input[i] = 0.001f * static_cast<float>((i * 2654435761u) % 1000);
  }
  auto run = [&](int threads) {
    SetParallelThreads(threads);
    std::vector<float> out(static_cast<size_t>(rows), 0.0f);
    ParallelFor(0, rows, 1, [&](int64_t lo, int64_t hi) {
      for (int64_t r = lo; r < hi; ++r) {
        float acc = 0.0f;
        for (int64_t c = 0; c < cols; ++c) acc += input[r * cols + c];
        out[r] = acc;
      }
    });
    return out;
  };
  const std::vector<float> serial = run(1);
  EXPECT_EQ(serial, run(2));
  EXPECT_EQ(serial, run(4));
  EXPECT_EQ(serial, run(7));
}

}  // namespace
}  // namespace sgcl
