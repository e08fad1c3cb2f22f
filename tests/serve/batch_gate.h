// Test helpers for the micro-batcher. The batcher never waits for
// stragglers, so a test makes a batch form the way load does: it holds
// the first forward inside the batch function while later requests queue
// behind it, then lets it go.
#ifndef SGCL_TESTS_SERVE_BATCH_GATE_H_
#define SGCL_TESTS_SERVE_BATCH_GATE_H_

#include <atomic>
#include <future>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "serve/batcher.h"

namespace sgcl::serve {

// Wrap() returns a batch function whose first call blocks until Open();
// later calls run `fn` at once.
class FirstForwardGate {
 public:
  BatchFn Wrap(BatchFn fn) {
    return [this, fn = std::move(fn)](const std::vector<const Graph*>& graphs,
                                      std::vector<std::vector<float>>* rows) {
      if (first_.exchange(false)) {
        entered_.set_value();
        open_future_.wait();
      }
      return fn(graphs, rows);
    };
  }
  // Blocks until the first forward is inside the batch function.
  void WaitEntered() { entered_future_.wait(); }
  void Open() { open_.set_value(); }

 private:
  std::atomic<bool> first_{true};
  std::promise<void> entered_;
  std::future<void> entered_future_ = entered_.get_future();
  std::promise<void> open_;
  std::shared_future<void> open_future_ = open_.get_future().share();
};

// Spins until the queue_depth gauge of the batcher named `name` reads at
// least `depth`.
inline void WaitForQueueDepth(const std::string& name, double depth) {
  const Gauge* gauge =
      MetricsRegistry::Global().GetGauge("serve/" + name + "/queue_depth");
  while (gauge->value() < depth) std::this_thread::yield();
}

}  // namespace sgcl::serve

#endif  // SGCL_TESTS_SERVE_BATCH_GATE_H_
