#include "common/crc32.h"

#include <string>

#include "gtest/gtest.h"

namespace sgcl {
namespace {

TEST(Crc32Test, KnownVectors) {
  // The standard CRC-32 (IEEE 802.3) check value.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
  EXPECT_EQ(Crc32("a"), 0xE8B7BE43u);
}

TEST(Crc32Test, SeedChainsIncrementalComputation) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const uint32_t whole = Crc32(data);
  for (size_t split = 0; split <= data.size(); ++split) {
    const uint32_t part1 = Crc32(data.data(), split);
    const uint32_t chained =
        Crc32(data.data() + split, data.size() - split, part1);
    EXPECT_EQ(chained, whole) << "split at " << split;
  }
}

TEST(Crc32Test, DetectsEverySingleBitFlip) {
  std::string data = "checkpoint payload bytes";
  const uint32_t original = Crc32(data);
  for (size_t byte = 0; byte < data.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      data[byte] ^= static_cast<char>(1 << bit);
      EXPECT_NE(Crc32(data), original)
          << "undetected flip at byte " << byte << " bit " << bit;
      data[byte] ^= static_cast<char>(1 << bit);
    }
  }
}

TEST(Fnv1a64Test, KnownVectors) {
  // The published FNV-1a 64-bit test vectors.
  EXPECT_EQ(Fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(Fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(Fnv1a64("foobar"), 0x85944171f73967e8ULL);
}

TEST(Fnv1a64Test, SeedChainsIncrementalComputation) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const uint64_t whole = Fnv1a64(data);
  for (size_t split = 0; split <= data.size(); ++split) {
    const uint64_t part1 = Fnv1a64(data.data(), split);
    EXPECT_EQ(Fnv1a64(data.data() + split, data.size() - split, part1), whole)
        << "split at " << split;
  }
}

TEST(Crc32Test, DistinguishesPermutedContent) {
  EXPECT_NE(Crc32("ab"), Crc32("ba"));
  EXPECT_NE(Crc32(std::string("\0a", 2)), Crc32(std::string("a\0", 2)));
}

}  // namespace
}  // namespace sgcl
