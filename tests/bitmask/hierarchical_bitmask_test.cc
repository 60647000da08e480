#include "bitmask/hierarchical_bitmask.h"

#include <gtest/gtest.h>

#include "common/random.h"

namespace spangle {
namespace {

Bitmask RandomMask(size_t bits, uint64_t seed, double density) {
  Rng rng(seed);
  Bitmask m(bits);
  for (size_t i = 0; i < bits; ++i) {
    if (rng.NextBool(density)) m.Set(i);
  }
  return m;
}

TEST(HierarchicalBitmaskTest, RoundTripsThroughFlat) {
  auto flat = RandomMask(4096, 11, 0.001);
  auto h = HierarchicalBitmask::FromBitmask(flat);
  EXPECT_TRUE(h.ToBitmask() == flat);
}

TEST(HierarchicalBitmaskTest, FromSortedBitsMatchesFromBitmask) {
  // 4000 bits: the last word is partial.
  for (double density : {0.0, 0.002, 0.05, 0.6}) {
    auto flat = RandomMask(4000, 13, density);
    std::vector<uint32_t> bits;
    flat.ForEachSetBit([&](size_t i) {
      bits.push_back(static_cast<uint32_t>(i));
      if (i % 3 == 0) bits.push_back(static_cast<uint32_t>(i));  // repeats
    });
    auto want = HierarchicalBitmask::FromBitmask(flat);
    auto got = HierarchicalBitmask::FromSortedBits(4000, bits);
    EXPECT_TRUE(got.ToBitmask() == flat) << density;
    EXPECT_EQ(got.num_bits(), want.num_bits());
    EXPECT_EQ(got.num_lower_words(), want.num_lower_words());
    EXPECT_EQ(got.SizeBytes(), want.SizeBytes());
    for (size_t i = 0; i <= 4000; i += 37) {
      ASSERT_EQ(got.Rank(i), want.Rank(i)) << density << " @" << i;
    }
  }
}

TEST(HierarchicalBitmaskTest, EmptyMask) {
  Bitmask flat(1024);
  auto h = HierarchicalBitmask::FromBitmask(flat);
  EXPECT_EQ(h.CountAll(), 0u);
  EXPECT_EQ(h.num_lower_words(), 0u);
  EXPECT_FALSE(h.Test(0));
  EXPECT_EQ(h.Rank(1024), 0u);
}

TEST(HierarchicalBitmaskTest, DropsAllZeroWords) {
  Bitmask flat(64 * 100);
  flat.Set(0);
  flat.Set(64 * 50 + 3);
  flat.Set(64 * 99 + 63);
  auto h = HierarchicalBitmask::FromBitmask(flat);
  EXPECT_EQ(h.num_lower_words(), 3u);  // only 3 of 100 words survive
  EXPECT_EQ(h.CountAll(), 3u);
}

TEST(HierarchicalBitmaskTest, SmallerThanFlatWhenSuperSparse) {
  // 65536 cells, 5 valid: flat mask = 8 KiB, hierarchical far less.
  Bitmask flat(65536);
  for (size_t i : {100u, 20000u, 30000u, 50000u, 65000u}) flat.Set(i);
  auto h = HierarchicalBitmask::FromBitmask(flat);
  EXPECT_LT(h.SizeBytes(), flat.SizeBytes() / 4);
}

class HierarchicalDensityTest : public ::testing::TestWithParam<double> {};

TEST_P(HierarchicalDensityTest, TestRankSelectAgreeWithFlat) {
  const double density = GetParam();
  auto flat = RandomMask(20000, 42, density);
  auto h = HierarchicalBitmask::FromBitmask(flat);
  EXPECT_EQ(h.CountAll(), flat.CountAll());
  for (size_t i = 0; i < flat.num_bits(); i += 111) {
    EXPECT_EQ(h.Test(i), flat.Test(i)) << "i=" << i;
    EXPECT_EQ(h.Rank(i), flat.RankNaive(i)) << "i=" << i;
  }
  EXPECT_EQ(h.Rank(flat.num_bits()), flat.CountAll());
  const uint64_t total = flat.CountAll();
  for (uint64_t k = 0; k < total; k += 13) {
    EXPECT_EQ(h.SelectSetBit(k), flat.SelectSetBit(k)) << "k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Densities, HierarchicalDensityTest,
                         ::testing::Values(0.0001, 0.001, 0.01, 0.1, 0.9));

TEST(HierarchicalBitmaskTest, ForEachSetBitMatchesFlat) {
  auto flat = RandomMask(10000, 17, 0.002);
  auto h = HierarchicalBitmask::FromBitmask(flat);
  std::vector<size_t> from_flat, from_h;
  flat.ForEachSetBit([&](size_t i) { from_flat.push_back(i); });
  h.ForEachSetBit([&](size_t i) { from_h.push_back(i); });
  EXPECT_EQ(from_flat, from_h);
}

}  // namespace
}  // namespace spangle
