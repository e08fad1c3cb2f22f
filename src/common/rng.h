// Deterministic pseudo-random number generation.
//
// Every stochastic component in the library draws from an explicitly seeded
// Rng so that experiments are bit-reproducible. The generator is
// xoshiro256** seeded through splitmix64, which is fast, high-quality, and
// has a tiny state that is cheap to fork per-worker.
#ifndef SGCL_COMMON_RNG_H_
#define SGCL_COMMON_RNG_H_

#include <array>
#include <cstdint>
#include <vector>

#include "common/check.h"

namespace sgcl {

// Complete serializable state of an Rng stream: the xoshiro256** words
// plus the Box-Muller spare. Restoring it resumes the stream at exactly
// the draw where GetState was taken — the checkpoint/resume contract
// (core/train_state.h) depends on this being the *whole* state.
struct RngState {
  std::array<uint64_t, 4> s{};
  bool has_cached_normal = false;
  double cached_normal = 0.0;

  bool operator==(const RngState& other) const {
    return s == other.s && has_cached_normal == other.has_cached_normal &&
           cached_normal == other.cached_normal;
  }
};

class Rng {
 public:
  explicit Rng(uint64_t seed);

  // Next raw 64-bit value.
  uint64_t Next();

  // Uniform in [0, 1).
  double Uniform();
  // Uniform in [lo, hi).
  double Uniform(double lo, double hi);
  // Uniform integer in [0, n). Requires n > 0.
  int64_t UniformInt(int64_t n);
  // Uniform integer in [lo, hi). Requires lo < hi.
  int64_t UniformInt(int64_t lo, int64_t hi);
  // Standard normal via Box-Muller.
  double Normal();
  double Normal(double mean, double stddev);
  // True with probability p (clamped to [0,1]).
  bool Bernoulli(double p);
  // Samples an index in [0, weights.size()) proportionally to weights.
  // Non-positive weights are treated as zero; requires a positive total.
  int64_t Categorical(const std::vector<double>& weights);
  // Poisson-distributed count with the given mean (Knuth for small means).
  int64_t Poisson(double mean);

  // Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (int64_t i = static_cast<int64_t>(v->size()) - 1; i > 0; --i) {
      int64_t j = UniformInt(i + 1);
      std::swap((*v)[i], (*v)[j]);
    }
  }

  // k distinct indices sampled uniformly from [0, n), in random order.
  std::vector<int64_t> SampleWithoutReplacement(int64_t n, int64_t k);

  // k distinct indices from [0, n) sampled *without replacement* with
  // probability proportional to weights (sequential draw-and-remove).
  // Entries with non-positive weight are only drawn once all positive-weight
  // entries are exhausted. Requires 0 <= k <= n.
  std::vector<int64_t> WeightedSampleWithoutReplacement(
      const std::vector<double>& weights, int64_t k);

  // Snapshot / restore of the full stream state (checkpointing).
  RngState GetState() const;
  void SetState(const RngState& state);

 private:
  uint64_t s_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace sgcl

#endif  // SGCL_COMMON_RNG_H_
