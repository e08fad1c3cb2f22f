#include "common/rng.h"

#include <algorithm>
#include <set>

#include "gtest/gtest.h"

namespace sgcl {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 4);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.Uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, UniformIntCoversRangeUniformly) {
  Rng rng(3);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 20000; ++i) ++counts[rng.UniformInt(10)];
  for (int c : counts) EXPECT_NEAR(c, 2000, 300);
}

TEST(RngTest, UniformIntHalfOpenBounds) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformInt(-3, 4);
    EXPECT_GE(v, -3);
    EXPECT_LT(v, 4);
  }
}

TEST(RngTest, NormalMomentsMatch) {
  Rng rng(11);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, BernoulliProbability) {
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(17);
  std::vector<double> w = {1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 8000; ++i) ++counts[rng.Categorical(w)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(counts[0] / 8000.0, 0.25, 0.03);
  EXPECT_NEAR(counts[2] / 8000.0, 0.75, 0.03);
}

TEST(RngTest, PoissonMean) {
  Rng rng(19);
  double sum = 0.0;
  for (int i = 0; i < 5000; ++i) sum += static_cast<double>(rng.Poisson(4.0));
  EXPECT_NEAR(sum / 5000.0, 4.0, 0.15);
}

TEST(RngTest, SampleWithoutReplacementIsDistinctSubset) {
  Rng rng(23);
  auto sample = rng.SampleWithoutReplacement(20, 8);
  EXPECT_EQ(sample.size(), 8u);
  std::set<int64_t> uniq(sample.begin(), sample.end());
  EXPECT_EQ(uniq.size(), 8u);
  for (int64_t v : sample) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 20);
  }
}

TEST(RngTest, SampleWithoutReplacementFullPermutation) {
  Rng rng(29);
  auto sample = rng.SampleWithoutReplacement(5, 5);
  std::sort(sample.begin(), sample.end());
  EXPECT_EQ(sample, (std::vector<int64_t>{0, 1, 2, 3, 4}));
}

TEST(RngTest, WeightedSampleAvoidsZeroWeight) {
  Rng rng(31);
  std::vector<double> w = {0.0, 5.0, 5.0, 0.0, 5.0};
  for (int trial = 0; trial < 50; ++trial) {
    auto s = rng.WeightedSampleWithoutReplacement(w, 3);
    std::set<int64_t> uniq(s.begin(), s.end());
    EXPECT_EQ(uniq.size(), 3u);
    EXPECT_FALSE(uniq.count(0));
    EXPECT_FALSE(uniq.count(3));
  }
}

TEST(RngTest, WeightedSampleFallsBackToUniformWhenExhausted) {
  Rng rng(37);
  std::vector<double> w = {1.0, 0.0, 0.0};
  auto s = rng.WeightedSampleWithoutReplacement(w, 3);
  std::set<int64_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 3u);
}

TEST(RngTest, WeightedSampleBiasedTowardsHeavyWeights) {
  Rng rng(41);
  std::vector<double> w = {10.0, 1.0, 1.0, 1.0};
  int first_count = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    auto s = rng.WeightedSampleWithoutReplacement(w, 1);
    first_count += (s[0] == 0);
  }
  EXPECT_NEAR(first_count / 2000.0, 10.0 / 13.0, 0.04);
}

}  // namespace
}  // namespace sgcl
