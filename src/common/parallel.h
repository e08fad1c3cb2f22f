// Shared parallel runtime: a lazily-initialized global ThreadPool plus a
// ParallelFor helper for row-partitioned kernels.
//
// Sizing: the pool holds SGCL_NUM_THREADS workers (env var; default
// std::thread::hardware_concurrency). With one thread — or when a range is
// no larger than its grain — ParallelFor runs the body inline on the
// calling thread, so `SGCL_NUM_THREADS=1` is bitwise-identical to the
// sequential code.
//
// Determinism contract: ParallelFor partitions [begin, end) into disjoint
// contiguous chunks, one body invocation per chunk. Callers must only
// write state owned by their chunk (e.g. disjoint output/grad rows); under
// that discipline results are identical for every thread count and no
// atomics are needed. Nested ParallelFor calls from inside a pool worker
// run inline, so parallel sections can be composed without deadlock.
#ifndef SGCL_COMMON_PARALLEL_H_
#define SGCL_COMMON_PARALLEL_H_

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"

namespace sgcl {

// The most threads any count from outside the program may ask for:
// SGCL_NUM_THREADS, HttpServerOptions::num_threads (sgcl_cli serve
// --http-threads) and serve_load --concurrency. Far above every caller,
// it turns a typo such as 2147483647 into an error before any thread
// starts, instead of spawning until std::thread throws.
constexpr int kMaxThreadCount = 1024;

// Strictly parses a thread-count override (the SGCL_NUM_THREADS
// environment variable). InvalidArgument on empty, non-numeric, or
// trailing-garbage input, and on counts outside [1, kMaxThreadCount].
// The pool warns and falls back to the hardware default instead of
// silently misconfiguring. Exposed for tests.
Result<int> ParseThreadCount(const std::string& value);

class ThreadPool {
 public:
  // Spawns `num_threads` workers (clamped below by 1).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(workers_.size()); }

  // Enqueues `task` for execution on a worker thread. The task runs
  // under the submitter's ambient TraceContext (common/trace.h), so its
  // spans join the submitter's trace.
  void Submit(std::function<void()> task);

  // True on a thread owned by any ThreadPool (used to run nested
  // parallel sections inline).
  static bool InWorkerThread();

 private:
  // Blocks in cv_.wait via std::unique_lock, which libc++ does not
  // annotate as a scoped capability; clang's analysis cannot see the
  // lock and sgcl_lint's R8 (which models unique_lock) covers it.
  void WorkerLoop() SGCL_NO_THREAD_SAFETY_ANALYSIS;

  std::mutex mu_;
  std::condition_variable cv_;
  std::queue<std::function<void()>> tasks_ SGCL_GUARDED_BY(mu_);
  bool stop_ SGCL_GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;
};

// The process-wide pool, created on first use from SGCL_NUM_THREADS (or
// hardware_concurrency when unset/invalid).
ThreadPool& GlobalThreadPool();

// Worker count the global pool has (or would have) — 1 means sequential.
int ParallelRuntimeThreads();

// Replaces the global pool with one of `num_threads` workers (0 restores
// the SGCL_NUM_THREADS/hardware default). Must not be called while
// parallel work is in flight; intended for tests and benchmarks.
void SetParallelThreads(int num_threads);

// Runs fn(chunk_begin, chunk_end) over a disjoint contiguous partition of
// [begin, end). Chunks hold at least `grain` indices; when the whole range
// fits in one grain, the pool has a single thread, or the caller is
// already a pool worker, the body runs inline as fn(begin, end).
// Exceptions thrown by `fn` are rethrown on the calling thread (first one
// wins) after all chunks finish.
void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                 const std::function<void(int64_t, int64_t)>& fn);

// The grain for a row-partitioned kernel costing `work_per_row` (flops or
// multiply-adds) per row: chunks of at least 2^16, so a small range runs
// inline and a large one splits into ~64K tasks. The row-parallel kernels
// of tensor/ops.cc and nn/gin_kernel.cc share this one rule.
inline int64_t RowGrain(int64_t work_per_row) {
  constexpr int64_t kMinWorkPerChunk = 1 << 16;
  return std::max<int64_t>(
      1, kMinWorkPerChunk / std::max<int64_t>(1, work_per_row));
}

}  // namespace sgcl

#endif  // SGCL_COMMON_PARALLEL_H_
