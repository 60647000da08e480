#include "matrix/mask_matrix.h"

#include <gtest/gtest.h>

#include <map>

#include "common/random.h"
#include "matrix/block_matrix.h"

namespace spangle {
namespace {

std::vector<std::pair<uint64_t, uint64_t>> RandomEdges(uint64_t n,
                                                       double density,
                                                       uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<uint64_t, uint64_t>> edges;
  for (uint64_t r = 0; r < n; ++r) {
    for (uint64_t c = 0; c < n; ++c) {
      if (rng.NextBool(density)) edges.emplace_back(r, c);
    }
  }
  return edges;
}

TEST(MaskMatrixTest, CountsEdges) {
  Context ctx(2);
  auto edges = RandomEdges(32, 0.1, 1);
  auto m = *MaskMatrix::FromEdges(&ctx, 32, 8, edges);
  EXPECT_EQ(m.NumEdges(), edges.size());
}

TEST(MaskMatrixTest, ValidatesInput) {
  Context ctx(2);
  EXPECT_FALSE(MaskMatrix::FromEdges(&ctx, 0, 8, {}).ok());
  EXPECT_FALSE(MaskMatrix::FromEdges(&ctx, 8, 4, {{9, 0}}).ok());
}

TEST(MaskMatrixTest, OneBitPerEdgeBeatsPayloadMatrix) {
  Context ctx(2);
  const uint64_t n = 512;
  auto edges = RandomEdges(n, 0.05, 2);
  auto mask = *MaskMatrix::FromEdges(&ctx, n, 128, edges);
  std::vector<MatrixEntry> entries;
  entries.reserve(edges.size());
  for (auto& [r, c] : edges) entries.push_back({r, c, 1.0});
  auto weighted = *BlockMatrix::FromEntries(&ctx, n, n, 128, entries);
  EXPECT_LT(mask.MemoryBytes(), weighted.MemoryBytes() / 2)
      << "an unweighted edge costs one bit, not eight bytes (Sec. VI-B)";
}

TEST(MaskMatrixTest, HierarchicalTilesForVerySparseGraphs) {
  Context ctx(2);
  // 1000 nodes, ~2000 edges: density ~2e-3 < 1/64.
  Rng rng(3);
  std::vector<std::pair<uint64_t, uint64_t>> edges;
  for (int i = 0; i < 2000; ++i) {
    edges.emplace_back(rng.NextBounded(1000), rng.NextBounded(1000));
  }
  auto auto_mode = *MaskMatrix::FromEdges(&ctx, 1000, 500, edges);
  auto flat = *MaskMatrix::FromEdges(&ctx, 1000, 500, edges, false);
  auto forced = *MaskMatrix::FromEdges(&ctx, 1000, 500, edges, true);
  EXPECT_LT(forced.MemoryBytes(), 1000u * 1000u / 8 / 2)
      << "hierarchical masks drop the all-zero words";
  EXPECT_EQ(forced.NumEdges(), auto_mode.NumEdges());
  (void)flat;
}

TEST(MaskMatrixTest, TilesMatchAFlatMaskPerTile) {
  Context ctx(2);
  const uint64_t n = 70;  // short last block
  const uint64_t block = 16;
  const uint64_t nb = 5;
  for (double density : {0.01, 0.05}) {
    auto edges = RandomEdges(n, density, 9);
    // Repeated edges set one bit.
    edges.insert(edges.end(), edges.begin(), edges.begin() + 10);
    // The reference: one flat mask per tile, then the mode rule.
    std::map<ChunkId, Bitmask> masks;
    for (const auto& [r, c] : edges) {
      auto [it, fresh] =
          masks.try_emplace(r / block + (c / block) * nb, block * block);
      it->second.Set((r % block) * block + c % block);
    }
    auto m = *MaskMatrix::FromEdges(&ctx, n, block, edges);
    auto tiles = m.tiles().Collect();
    ASSERT_EQ(tiles.size(), masks.size()) << density;
    for (const auto& [id, tile] : tiles) {
      ASSERT_TRUE(masks.count(id)) << id;
      const Bitmask& want = masks.at(id);
      ASSERT_EQ(tile.hierarchical, want.CountAll() * 64 < block * block);
      if (tile.hierarchical) {
        const auto h = HierarchicalBitmask::FromBitmask(want);
        EXPECT_TRUE(tile.h.ToBitmask() == want) << id;
        EXPECT_EQ(tile.h.num_lower_words(), h.num_lower_words());
        EXPECT_EQ(tile.h.SizeBytes(), h.SizeBytes());
      } else {
        EXPECT_EQ(tile.flat.words(), want.words()) << id;
        EXPECT_TRUE(tile.flat.has_milestones());
      }
    }
  }
}

TEST(MaskMatrixTest, MultiplyVectorMatchesReference) {
  struct Case {
    uint64_t n;
    uint64_t block;
    int vector_partitions;  // 0: the matrix's count (context default)
    bool empty_row_blocks;  // drop every edge into row blocks 1 and 3
  };
  const Case cases[] = {
      {24, 6, 0, false},
      {24, 6, 3, false},  // vector placed over another partition count
      {26, 6, 0, false},  // short last block
      {26, 6, 0, true},
      {29, 4, 5, true},
  };
  for (const Case& tc : cases) {
    SCOPED_TRACE(testing::Message()
                 << "n=" << tc.n << " block=" << tc.block
                 << " vector_partitions=" << tc.vector_partitions
                 << " empty_row_blocks=" << tc.empty_row_blocks);
    Context ctx(2);
    auto edges = RandomEdges(tc.n, 0.2, 4);
    auto empty_row = [&](uint64_t r) {
      const uint64_t rb = r / tc.block;
      return tc.empty_row_blocks && (rb == 1 || rb == 3);
    };
    std::erase_if(edges, [&](const auto& e) { return empty_row(e.first); });
    auto m = *MaskMatrix::FromEdges(&ctx, tc.n, tc.block, edges);
    std::vector<double> x(tc.n);
    for (uint64_t i = 0; i < tc.n; ++i) x[i] = 0.1 * i + 1;
    auto v = BlockVector::FromDense(&ctx, x, tc.block, tc.vector_partitions);
    auto y = *m.MultiplyVector(v);
    EXPECT_EQ(y.blocks().num_partitions(), v.blocks().num_partitions());
    EXPECT_EQ(y.blocks().Count(), y.num_blocks()) << "every row block exists";
    std::vector<double> want(tc.n, 0.0);
    for (auto& [r, c] : edges) want[r] += x[c];
    auto got = y.ToDense();
    ASSERT_EQ(got.size(), tc.n);
    for (uint64_t i = 0; i < tc.n; ++i) {
      if (empty_row(i)) {
        EXPECT_EQ(got[i], 0.0) << "row " << i;
      } else {
        EXPECT_NEAR(got[i], want[i], 1e-9) << "row " << i;
      }
    }
  }
}

TEST(MaskMatrixTest, MultiplyVectorHierarchicalAgreesWithFlat) {
  Context ctx(2);
  const uint64_t n = 64;
  auto edges = RandomEdges(n, 0.01, 5);
  auto flat = *MaskMatrix::FromEdges(&ctx, n, 16, edges, false);
  auto hier = *MaskMatrix::FromEdges(&ctx, n, 16, edges, true);
  auto v = BlockVector::FromDense(&ctx, std::vector<double>(n, 1.0), 16);
  EXPECT_EQ(flat.MultiplyVector(v)->ToDense(),
            hier.MultiplyVector(v)->ToDense());
}

TEST(MaskMatrixTest, ColumnDegrees) {
  Context ctx(2);
  // Edges (dst, src): node 0 has out-degree 3 (appears as src 3 times).
  std::vector<std::pair<uint64_t, uint64_t>> edges = {
      {1, 0}, {2, 0}, {3, 0}, {0, 1}, {2, 1}, {3, 7}};
  auto m = *MaskMatrix::FromEdges(&ctx, 8, 4, edges);
  auto deg = m.ColumnDegrees();
  EXPECT_EQ(deg[0], 3u);
  EXPECT_EQ(deg[1], 2u);
  EXPECT_EQ(deg[7], 1u);
  EXPECT_EQ(deg[2], 0u);
}

TEST(MaskMatrixTest, MultiplyVectorDimensionChecks) {
  Context ctx(2);
  auto m = *MaskMatrix::FromEdges(&ctx, 8, 4, {{0, 1}});
  EXPECT_FALSE(
      m.MultiplyVector(BlockVector::FromDense(&ctx, std::vector<double>(9), 4))
          .ok());
  EXPECT_FALSE(
      m.MultiplyVector(BlockVector::FromDense(&ctx, std::vector<double>(8), 2))
          .ok());
}

}  // namespace
}  // namespace spangle
