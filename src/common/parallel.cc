#include "common/parallel.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <memory>

#include "common/check.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "common/trace.h"

namespace sgcl {
namespace {

thread_local bool t_in_pool_worker = false;

// Runtime telemetry (see metrics.h). Task counts are plain counters;
// queue wait (submit -> dequeue latency) is a histogram whose buckets
// cover "pool keeping up" (tens of µs) through "pool saturated" (ms+).
Counter* TasksCounter() {
  static Counter* const c =
      MetricsRegistry::Global().GetCounter("parallel/tasks");
  return c;
}

Counter* InlineRunsCounter() {
  static Counter* const c =
      MetricsRegistry::Global().GetCounter("parallel/inline_runs");
  return c;
}

Counter* ParallelForCounter() {
  static Counter* const c =
      MetricsRegistry::Global().GetCounter("parallel/parallel_fors");
  return c;
}

Histogram* QueueWaitHistogram() {
  static Histogram* const h = MetricsRegistry::Global().GetHistogram(
      "parallel/queue_wait_us",
      {10.0, 50.0, 100.0, 500.0, 1000.0, 5000.0, 20000.0, 100000.0});
  return h;
}

int HardwareThreadCount() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

int DefaultThreadCount() {
  const char* env = std::getenv("SGCL_NUM_THREADS");
  if (env == nullptr) return HardwareThreadCount();
  const Result<int> parsed = ParseThreadCount(env);
  if (!parsed.ok()) {
    const int fallback = HardwareThreadCount();
    SGCL_LOG(WARNING) << "ignoring SGCL_NUM_THREADS=\"" << env
                      << "\": " << parsed.status().message() << "; using "
                      << fallback << " hardware thread(s)";
    return fallback;
  }
  return *parsed;
}

std::mutex& GlobalPoolMutex() {
  static std::mutex mu;
  return mu;
}

std::unique_ptr<ThreadPool>& GlobalPoolSlot() {
  static std::unique_ptr<ThreadPool> pool;
  return pool;
}

}  // namespace

Result<int> ParseThreadCount(const std::string& value) {
  if (value.empty()) {
    return Status::InvalidArgument("thread count is empty");
  }
  errno = 0;
  char* end = nullptr;
  const long parsed = std::strtol(value.c_str(), &end, 10);
  if (end == value.c_str() || *end != '\0') {
    return Status::InvalidArgument("thread count is not an integer");
  }
  if (errno == ERANGE || parsed > kMaxThreadCount) {
    return Status::InvalidArgument(
        StrFormat("thread count is outside [1, %d]", kMaxThreadCount));
  }
  if (parsed <= 0) {
    return Status::InvalidArgument("thread count must be positive");
  }
  return static_cast<int>(parsed);
}

ThreadPool::ThreadPool(int num_threads) {
  const int n = std::max(1, num_threads);
  workers_.reserve(n);
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  TasksCounter()->Increment();
  const auto enqueued = std::chrono::steady_clock::now();
  auto timed_task = [task = std::move(task), enqueued,
                     trace_ctx = CurrentTraceContext()] {
    QueueWaitHistogram()->Observe(static_cast<double>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - enqueued)
            .count()));
    ScopedTraceContext trace_install(trace_ctx);
    task();
  };
  {
    std::lock_guard<std::mutex> lock(mu_);
    SGCL_CHECK(!stop_);
    tasks_.push(std::move(timed_task));
  }
  cv_.notify_one();
}

bool ThreadPool::InWorkerThread() { return t_in_pool_worker; }

void ThreadPool::WorkerLoop() {
  t_in_pool_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // stop_ set and queue drained
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

ThreadPool& GlobalThreadPool() {
  std::lock_guard<std::mutex> lock(GlobalPoolMutex());
  auto& pool = GlobalPoolSlot();
  if (!pool) pool = std::make_unique<ThreadPool>(DefaultThreadCount());
  return *pool;
}

int ParallelRuntimeThreads() { return GlobalThreadPool().size(); }

void SetParallelThreads(int num_threads) {
  std::lock_guard<std::mutex> lock(GlobalPoolMutex());
  auto& pool = GlobalPoolSlot();
  pool.reset();  // joins old workers before the new pool spins up
  pool = std::make_unique<ThreadPool>(
      num_threads > 0 ? num_threads : DefaultThreadCount());
}

void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                 const std::function<void(int64_t, int64_t)>& fn) {
  if (end <= begin) return;
  grain = std::max<int64_t>(1, grain);
  const int64_t range = end - begin;
  if (range <= grain || ThreadPool::InWorkerThread()) {
    InlineRunsCounter()->Increment();
    fn(begin, end);
    return;
  }
  ThreadPool& pool = GlobalThreadPool();
  if (pool.size() <= 1) {
    InlineRunsCounter()->Increment();
    fn(begin, end);
    return;
  }
  ParallelForCounter()->Increment();
  int64_t num_chunks =
      std::min<int64_t>(pool.size(), (range + grain - 1) / grain);
  const int64_t chunk = (range + num_chunks - 1) / num_chunks;
  num_chunks = (range + chunk - 1) / chunk;

  struct State {
    std::mutex mu;
    std::condition_variable cv;
    int64_t pending;
    std::exception_ptr error;
  } state;
  state.pending = num_chunks - 1;

  for (int64_t c = 1; c < num_chunks; ++c) {
    const int64_t lo = begin + c * chunk;
    const int64_t hi = std::min(end, lo + chunk);
    pool.Submit([&state, &fn, lo, hi] {
      std::exception_ptr err;
      try {
        fn(lo, hi);
      } catch (...) {
        err = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(state.mu);
      if (err && !state.error) state.error = err;
      if (--state.pending == 0) state.cv.notify_one();
    });
  }
  // The calling thread owns the first chunk.
  std::exception_ptr caller_err;
  try {
    fn(begin, begin + chunk);
  } catch (...) {
    caller_err = std::current_exception();
  }
  std::unique_lock<std::mutex> lock(state.mu);
  state.cv.wait(lock, [&state] { return state.pending == 0; });
  if (caller_err && !state.error) state.error = caller_err;
  if (state.error) std::rethrow_exception(state.error);
}

}  // namespace sgcl
