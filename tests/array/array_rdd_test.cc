#include "array/array_rdd.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/random.h"

namespace spangle {
namespace {

ArrayMetadata Meta2D() {
  return *ArrayMetadata::Make({{"x", 0, 64, 8, 0}, {"y", 0, 64, 8, 0}});
}

std::vector<CellValue> SparseCells(const ArrayMetadata& meta, double density,
                                   uint64_t seed) {
  Rng rng(seed);
  std::vector<CellValue> cells;
  for (int64_t x = 0; x < static_cast<int64_t>(meta.dim(0).size); ++x) {
    for (int64_t y = 0; y < static_cast<int64_t>(meta.dim(1).size); ++y) {
      if (rng.NextBool(density)) {
        cells.push_back({{x, y}, rng.NextDouble(0, 100)});
      }
    }
  }
  return cells;
}

TEST(ArrayRddTest, FromCellsRoundTrip) {
  Context ctx(2);
  auto meta = Meta2D();
  auto cells = SparseCells(meta, 0.1, 1);
  auto array = *ArrayRdd::FromCells(&ctx, meta, cells);
  EXPECT_EQ(array.CountValid(), cells.size());
  auto out = array.CollectCells();
  auto key = [](const CellValue& c) {
    return std::make_pair(c.pos, c.value);
  };
  std::sort(out.begin(), out.end(),
            [&](const auto& a, const auto& b) { return key(a) < key(b); });
  auto expected = cells;
  std::sort(expected.begin(), expected.end(),
            [&](const auto& a, const auto& b) { return key(a) < key(b); });
  ASSERT_EQ(out.size(), expected.size());
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].pos, expected[i].pos);
    EXPECT_DOUBLE_EQ(out[i].value, expected[i].value);
  }
}

TEST(ArrayRddTest, EmptyChunksNeverMaterialized) {
  Context ctx(2);
  auto meta = Meta2D();
  // All data in one corner chunk: only that chunk may exist.
  std::vector<CellValue> cells = {{{0, 0}, 1.0}, {{1, 1}, 2.0}};
  auto array = *ArrayRdd::FromCells(&ctx, meta, cells);
  EXPECT_EQ(array.NumChunks(), 1u);
}

TEST(ArrayRddTest, RejectsOutOfBoundsCells) {
  Context ctx(2);
  auto meta = Meta2D();
  std::vector<CellValue> cells = {{{64, 0}, 1.0}};
  EXPECT_TRUE(ArrayRdd::FromCells(&ctx, meta, cells).status().IsOutOfRange());
}

TEST(ArrayRddTest, RejectsWrongDimensionality) {
  Context ctx(2);
  auto meta = Meta2D();
  std::vector<CellValue> cells = {{{1}, 1.0}};
  EXPECT_TRUE(
      ArrayRdd::FromCells(&ctx, meta, cells).status().IsInvalidArgument());
}

TEST(ArrayRddTest, GetCellRoutesToOnePartition) {
  Context ctx(2);
  auto meta = Meta2D();
  std::vector<CellValue> cells = {{{3, 4}, 7.5}, {{40, 50}, -2.5}};
  auto array = *ArrayRdd::FromCells(&ctx, meta, cells);
  EXPECT_DOUBLE_EQ(*array.GetCell({3, 4}), 7.5);
  EXPECT_DOUBLE_EQ(*array.GetCell({40, 50}), -2.5);
  EXPECT_TRUE(array.GetCell({3, 5}).status().IsNotFound()) << "null cell";
  EXPECT_TRUE(array.GetCell({10, 10}).status().IsNotFound())
      << "empty chunk";
  EXPECT_TRUE(array.GetCell({100, 0}).status().IsOutOfRange());
}

TEST(ArrayRddTest, FromDenseBufferHonorsNullPredicate) {
  Context ctx(2);
  auto meta = *ArrayMetadata::Make({{"x", 0, 4, 2, 0}, {"y", 0, 4, 2, 0}});
  // Row-major 4x4, -1 = null.
  std::vector<double> data = {1, -1, 2, -1,   //
                              -1, 3, -1, 4,   //
                              5, -1, 6, -1,   //
                              -1, 7, -1, 8};
  auto array = *ArrayRdd::FromDenseBuffer(&ctx, meta, data,
                                          [](double v) { return v < 0; });
  EXPECT_EQ(array.CountValid(), 8u);
  EXPECT_DOUBLE_EQ(*array.GetCell({0, 0}), 1.0);
  EXPECT_DOUBLE_EQ(*array.GetCell({0, 2}), 2.0);
  EXPECT_DOUBLE_EQ(*array.GetCell({3, 3}), 8.0);
  EXPECT_TRUE(array.GetCell({0, 1}).status().IsNotFound());
}

TEST(ArrayRddTest, FixedModePolicyApplies) {
  Context ctx(2);
  auto meta = Meta2D();
  auto cells = SparseCells(meta, 0.05, 3);
  auto array = *ArrayRdd::FromCells(&ctx, meta, cells,
                                    ModePolicy::Fixed(ChunkMode::kSparse));
  for (const auto& [id, chunk] : array.chunks().Collect()) {
    EXPECT_EQ(chunk.mode(), ChunkMode::kSparse);
  }
}

TEST(ArrayRddTest, AutoModePicksByDensity) {
  Context ctx(2);
  auto meta = *ArrayMetadata::Make({{"x", 0, 128, 128, 0}});
  // One dense region and nothing else -> single chunk, dense.
  std::vector<CellValue> cells;
  for (int64_t x = 0; x < 128; ++x) cells.push_back({{x}, 1.0});
  auto array = *ArrayRdd::FromCells(&ctx, meta, cells, ModePolicy::Auto());
  auto recs = array.chunks().Collect();
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].second.mode(), ChunkMode::kDense);
}

TEST(ArrayRddTest, MapValuesTransformsEveryCell) {
  Context ctx(2);
  auto meta = Meta2D();
  auto cells = SparseCells(meta, 0.1, 5);
  auto array = *ArrayRdd::FromCells(&ctx, meta, cells);
  auto negated = array.MapValues([](double v) { return -v; });
  EXPECT_EQ(negated.CountValid(), cells.size());
  for (const auto& c : cells) {
    EXPECT_DOUBLE_EQ(*negated.GetCell(c.pos), -c.value);
  }
}

TEST(ArrayRddTest, ConvertModeKeepsData) {
  Context ctx(2);
  auto meta = Meta2D();
  auto cells = SparseCells(meta, 0.2, 8);
  auto array = *ArrayRdd::FromCells(&ctx, meta, cells);
  auto dense = array.ConvertMode(ChunkMode::kDense);
  auto sparse = array.ConvertMode(ChunkMode::kSparse);
  EXPECT_EQ(dense.CountValid(), cells.size());
  EXPECT_EQ(sparse.CountValid(), cells.size());
}

TEST(ArrayRddTest, SparseUsesLessMemoryThanDense) {
  Context ctx(2);
  auto meta = *ArrayMetadata::Make({{"x", 0, 40000, 8192, 0}});
  Rng rng(10);
  std::vector<CellValue> cells;
  for (int64_t x = 0; x < 40000; ++x) {
    if (rng.NextBool(0.02)) cells.push_back({{x}, 1.0});
  }
  auto dense = *ArrayRdd::FromCells(&ctx, meta, cells,
                                    ModePolicy::Fixed(ChunkMode::kDense));
  auto sparse = *ArrayRdd::FromCells(&ctx, meta, cells,
                                     ModePolicy::Fixed(ChunkMode::kSparse));
  EXPECT_LT(sparse.MemoryBytes(), dense.MemoryBytes() / 4);
}

TEST(ArrayRddTest, WithMetadataTransposesVectorCheaply) {
  Context ctx(2);
  auto meta = *ArrayMetadata::Make({{"row", 0, 1, 1, 0},
                                    {"col", 0, 16, 4, 0}});
  std::vector<CellValue> cells;
  for (int64_t c = 0; c < 16; ++c) cells.push_back({{0, c}, double(c)});
  auto vec = *ArrayRdd::FromCells(&ctx, meta, cells);
  auto t = vec.WithMetadata(meta.Transposed());
  EXPECT_EQ(t.metadata().dim(0).name, "col");
  EXPECT_EQ(t.CountValid(), 16u);
}

// Arrays persist to disk through the BlockManager's DISK_ONLY level: the
// same chunk-frame files as eviction spill, with lineage kept behind them.
ArrayRdd DiskOnlyArray(Context* ctx, std::vector<CellValue>* cells) {
  auto meta = *ArrayMetadata::Make({{"x", 0, 64, 16, 0}});
  for (int64_t x = 0; x < 64; x += 3) cells->push_back({{x}, double(x)});
  auto array = *ArrayRdd::FromCells(ctx, meta, *cells);
  array.Cache(StorageLevel::kDiskOnly);
  return array;
}

TEST(DiskPersistTest, ArraySpillRoundTrip) {
  Context ctx(2);
  std::vector<CellValue> cells;
  auto spilled = DiskOnlyArray(&ctx, &cells);
  EXPECT_EQ(spilled.CountValid(), cells.size());
  EXPECT_GT(ctx.metrics().spilled_bytes.load(), 0u);

  // The second action streams the chunks back from disk.
  ctx.metrics().Reset();
  EXPECT_DOUBLE_EQ(*spilled.GetCell({33}), 33.0);
  EXPECT_TRUE(spilled.GetCell({34}).status().IsNotFound());
  EXPECT_GT(ctx.metrics().disk_reads.load(), 0u);
  EXPECT_EQ(ctx.metrics().recomputed_partitions.load(), 0u);
  // DISK_ONLY blocks are never resident, not even after a readback.
  EXPECT_EQ(ctx.block_manager().num_resident_blocks(), 0u);
  EXPECT_EQ(ctx.block_manager().bytes_in_memory(), 0u);
  // Persisting keeps the partitioner: point queries stay single-task.
  EXPECT_TRUE(spilled.chunks().partitioner() != nullptr);
}

TEST(DiskPersistTest, LostDiskOnlyChunksRecomputeFromLineage) {
  Context ctx(2);
  std::vector<CellValue> cells;
  auto spilled = DiskOnlyArray(&ctx, &cells);
  const std::vector<CellValue> first = spilled.CollectCells();
  ASSERT_EQ(first.size(), cells.size());

  // Worker 1's local disk dies with it; its partitions recompute.
  ctx.FailExecutor(1);
  ctx.metrics().Reset();
  const std::vector<CellValue> again = spilled.CollectCells();
  ASSERT_EQ(again.size(), first.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(again[i].pos, first[i].pos);
    EXPECT_EQ(again[i].value, first[i].value);
  }
  EXPECT_GT(ctx.metrics().recomputed_partitions.load(), 0u);
}

}  // namespace
}  // namespace spangle
