#include "common/rng.h"

#include <cmath>

namespace sgcl {
namespace {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(&sm);
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::Uniform() {
  // 53 random mantissa bits -> [0, 1).
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

int64_t Rng::UniformInt(int64_t n) {
  SGCL_CHECK_GT(n, 0);
  // Rejection sampling to avoid modulo bias.
  const uint64_t un = static_cast<uint64_t>(n);
  const uint64_t limit = UINT64_MAX - UINT64_MAX % un;
  uint64_t x;
  do {
    x = Next();
  } while (x >= limit);
  return static_cast<int64_t>(x % un);
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  SGCL_CHECK_LT(lo, hi);
  return lo + UniformInt(hi - lo);
}

double Rng::Normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1, u2;
  do {
    u1 = Uniform();
  } while (u1 <= 1e-300);
  u2 = Uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::Normal(double mean, double stddev) {
  return mean + stddev * Normal();
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return Uniform() < p;
}

int64_t Rng::Categorical(const std::vector<double>& weights) {
  SGCL_CHECK(!weights.empty());
  double total = 0.0;
  for (double w : weights) total += (w > 0.0 ? w : 0.0);
  SGCL_CHECK_GT(total, 0.0);
  double x = Uniform() * total;
  for (size_t i = 0; i < weights.size(); ++i) {
    const double w = weights[i] > 0.0 ? weights[i] : 0.0;
    if (x < w) return static_cast<int64_t>(i);
    x -= w;
  }
  // Floating-point slack: return the last positive-weight entry.
  for (size_t i = weights.size(); i-- > 0;) {
    if (weights[i] > 0.0) return static_cast<int64_t>(i);
  }
  return static_cast<int64_t>(weights.size()) - 1;
}

int64_t Rng::Poisson(double mean) {
  SGCL_CHECK_GE(mean, 0.0);
  if (mean == 0.0) return 0;
  if (mean < 30.0) {
    // Knuth's multiplication method.
    const double limit = std::exp(-mean);
    int64_t k = 0;
    double p = 1.0;
    do {
      ++k;
      p *= Uniform();
    } while (p > limit);
    return k - 1;
  }
  // Normal approximation for large means.
  const double x = Normal(mean, std::sqrt(mean));
  return x < 0.0 ? 0 : static_cast<int64_t>(std::lround(x));
}

std::vector<int64_t> Rng::SampleWithoutReplacement(int64_t n, int64_t k) {
  SGCL_CHECK_GE(n, 0);
  SGCL_CHECK_GE(k, 0);
  SGCL_CHECK_LE(k, n);
  std::vector<int64_t> pool(n);
  for (int64_t i = 0; i < n; ++i) pool[i] = i;
  // Partial Fisher-Yates: the first k entries are the sample.
  for (int64_t i = 0; i < k; ++i) {
    int64_t j = UniformInt(i, n);
    std::swap(pool[i], pool[j]);
  }
  pool.resize(k);
  return pool;
}

std::vector<int64_t> Rng::WeightedSampleWithoutReplacement(
    const std::vector<double>& weights, int64_t k) {
  const int64_t n = static_cast<int64_t>(weights.size());
  SGCL_CHECK_GE(k, 0);
  SGCL_CHECK_LE(k, n);
  std::vector<double> w(weights);
  for (double& x : w) {
    if (!(x > 0.0)) x = 0.0;
  }
  std::vector<int64_t> picked;
  picked.reserve(k);
  std::vector<bool> used(n, false);
  double total = 0.0;
  for (double x : w) total += x;
  for (int64_t t = 0; t < k; ++t) {
    if (total <= 1e-12) {
      // All remaining weight is zero: fall back to uniform over unused.
      std::vector<int64_t> remaining;
      for (int64_t i = 0; i < n; ++i) {
        if (!used[i]) remaining.push_back(i);
      }
      Shuffle(&remaining);
      for (int64_t i = 0; i < k - t; ++i) picked.push_back(remaining[i]);
      return picked;
    }
    double x = Uniform() * total;
    int64_t choice = -1;
    for (int64_t i = 0; i < n; ++i) {
      if (used[i]) continue;
      if (x < w[i]) {
        choice = i;
        break;
      }
      x -= w[i];
    }
    if (choice < 0) {
      // Floating-point slack: pick the last unused positive-weight entry.
      for (int64_t i = n; i-- > 0;) {
        if (!used[i] && w[i] > 0.0) {
          choice = i;
          break;
        }
      }
      SGCL_CHECK_GE(choice, 0);
    }
    used[choice] = true;
    total -= w[choice];
    w[choice] = 0.0;
    picked.push_back(choice);
  }
  return picked;
}

RngState Rng::GetState() const {
  RngState state;
  for (int i = 0; i < 4; ++i) state.s[i] = s_[i];
  state.has_cached_normal = has_cached_normal_;
  state.cached_normal = cached_normal_;
  return state;
}

void Rng::SetState(const RngState& state) {
  for (int i = 0; i < 4; ++i) s_[i] = state.s[i];
  has_cached_normal_ = state.has_cached_normal;
  cached_normal_ = state.cached_normal;
}

}  // namespace sgcl
