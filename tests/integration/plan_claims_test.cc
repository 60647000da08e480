// Verifies the optimization claims the matrix/array layers make, using
// the scheduler's physical plans and per-stage metrics as evidence: which
// operations shuffle, how many stages they cut, and what the MaskRdd
// saves over the eager baseline.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "array/spangle_array.h"
#include "common/random.h"
#include "matrix/block_matrix.h"
#include "matrix/mask_matrix.h"
#include "ops/aggregator.h"
#include "ops/operators.h"
#include "ops/overlap.h"
#include "workload/raster_gen.h"

namespace spangle {
namespace {

std::vector<MatrixEntry> RandomEntries(uint64_t rows, uint64_t cols,
                                       double density, uint64_t seed) {
  Rng rng(seed);
  std::vector<MatrixEntry> entries;
  for (uint64_t r = 0; r < rows; ++r) {
    for (uint64_t c = 0; c < cols; ++c) {
      if (rng.NextBool(density)) {
        entries.push_back({r, c, rng.NextDouble(-2, 2)});
      }
    }
  }
  return entries;
}

TEST(PlanClaimsTest, CoPartitionedAddPlansZeroShuffles) {
  Context ctx(2);
  auto a = *BlockMatrix::FromEntries(&ctx, 24, 24, 8,
                                     RandomEntries(24, 24, 0.3, 1));
  auto b = *BlockMatrix::FromEntries(&ctx, 24, 24, 8,
                                     RandomEntries(24, 24, 0.3, 2));
  auto sum = *a.Add(b);
  const std::string plan = sum.Explain();
  EXPECT_NE(plan.find("pending shuffle stages: 0"), std::string::npos)
      << plan;
  // And at run time: the whole evaluation shuffles nothing.
  const uint64_t shuffles_before = ctx.metrics().shuffles.load();
  sum.ToDense();
  EXPECT_EQ(ctx.metrics().shuffles.load(), shuffles_before);
}

TEST(PlanClaimsTest, ShuffleJoinMultiplyPlansTwoIndependentScatters) {
  Context ctx(2);
  auto a = *BlockMatrix::FromEntries(&ctx, 24, 16, 8,
                                     RandomEntries(24, 16, 0.3, 3));
  auto b = *BlockMatrix::FromEntries(&ctx, 16, 24, 8,
                                     RandomEntries(16, 24, 0.3, 4));
  // Default kHashChunk placement: the join cannot be local.
  auto c = *a.Multiply(b);
  PhysicalPlan plan =
      ctx.BuildPlan(c.array().chunks().AsRdd().node(), "collect");
  // Scatter/gather: one partitionBy per operand plus the gather-side
  // reduceByKey. The two scatters are independent — overlap width 2.
  EXPECT_EQ(plan.NumPendingShuffleStages(), 3);
  EXPECT_EQ(plan.MaxOverlapWidth(), 2);
}

TEST(PlanClaimsTest, LocalJoinMultiplyPlansOnlyTheGatherShuffle) {
  Context ctx(2);
  const int parts = 4;
  auto a = *BlockMatrix::FromEntries(&ctx, 24, 16, 8,
                                     RandomEntries(24, 16, 0.3, 5),
                                     ModePolicy::Auto(),
                                     PartitionScheme::kByColBlock, parts);
  auto b = *BlockMatrix::FromEntries(&ctx, 16, 24, 8,
                                     RandomEntries(16, 24, 0.3, 6),
                                     ModePolicy::Auto(),
                                     PartitionScheme::kByRowBlock, parts);
  auto c = *a.Multiply(b);
  PhysicalPlan plan =
      ctx.BuildPlan(c.array().chunks().AsRdd().node(), "collect");
  // Operand placement makes the contraction join local: neither matrix
  // scatters, only the output gather shuffles (paper Sec. VI-A).
  EXPECT_EQ(plan.NumPendingShuffleStages(), 1);
  const std::string text = plan.ToString();
  EXPECT_EQ(text.find("partitionBy"), std::string::npos) << text;
  EXPECT_NE(text.find("reduceByKey"), std::string::npos) << text;
}

TEST(PlanClaimsTest, MaskMatrixMultiplyVectorShufflesOnlyThePartials) {
  Context ctx(2);
  const int parts = 4;
  const uint64_t n = 1024;
  Rng rng(7);
  std::vector<std::pair<uint64_t, uint64_t>> edges;
  for (uint64_t r = 0; r < n; ++r) {
    for (uint64_t c = 0; c < n; ++c) {
      if (rng.NextBool(0.05)) edges.emplace_back(r, c);
    }
  }
  auto m = *MaskMatrix::FromEdges(&ctx, n, 128, edges, false, parts);
  auto v = BlockVector::FromDense(&ctx, std::vector<double>(n, 1.0), 128,
                                  parts);
  auto y = *m.MultiplyVector(v);
  PhysicalPlan plan = ctx.BuildPlan(y.blocks().AsRdd().node(), "collect");
  // A' is placed by column block and v by block, so the product is a
  // local join: the matrix never scatters, only the partial row blocks
  // gather (paper Sec. VI-A/VI-B).
  EXPECT_EQ(plan.NumPendingShuffleStages(), 1);
  const std::string text = plan.ToString();
  EXPECT_EQ(text.find("partitionBy"), std::string::npos) << text;
  EXPECT_NE(text.find("reduceByKey"), std::string::npos) << text;
  // At run time the gather moves less than the matrix holds.
  const uint64_t matrix_bytes = m.MemoryBytes();
  const uint64_t shuffled_before = ctx.metrics().shuffle_bytes.load();
  y.ToDense();
  const uint64_t shuffled = ctx.metrics().shuffle_bytes.load() -
                            shuffled_before;
  EXPECT_GT(shuffled, 0u);
  EXPECT_LT(shuffled, matrix_bytes);
}

ArrayRdd Ramp(Context* ctx) {
  const ArrayMetadata meta =
      *ArrayMetadata::Make({{"x", 0, 16, 4, 0}, {"y", 0, 16, 4, 0}});
  std::vector<CellValue> cells;
  for (int64_t x = 0; x < 16; ++x) {
    for (int64_t y = 0; y < 16; ++y) {
      cells.push_back({{x, y}, static_cast<double>(16 * x + y)});
    }
  }
  return *ArrayRdd::FromCells(ctx, meta, cells);
}

TEST(PlanClaimsTest, MaskRddFilterIsLazyAndShuffleFree) {
  // MaskRdd mode: Filter only rewrites the hidden mask — no stage runs
  // until evaluation, and the plan for evaluating both attributes holds
  // zero shuffles.
  Context mask_ctx(2);
  auto mask_arr = *SpangleArray::FromAttributes(
      {{"a", Ramp(&mask_ctx)}, {"b", Ramp(&mask_ctx)}},
      /*use_mask_rdd=*/true);
  const uint64_t stages_before = mask_ctx.metrics().stages_run.load();
  auto mask_filtered =
      *Filter(mask_arr, "a", [](double v) { return v < 100; });
  EXPECT_EQ(mask_ctx.metrics().stages_run.load(), stages_before)
      << "MaskRdd-mode Filter must not execute anything";
  const std::string plan = mask_filtered.Explain();
  EXPECT_NE(plan.find("pending shuffle stages: 0"), std::string::npos)
      << plan;

  // Eager baseline (use_mask_rdd=false): the same Filter rewrites and
  // materializes every attribute on the spot — one job per attribute.
  Context eager_ctx(2);
  auto eager_arr = *SpangleArray::FromAttributes(
      {{"a", Ramp(&eager_ctx)}, {"b", Ramp(&eager_ctx)}},
      /*use_mask_rdd=*/false);
  const uint64_t eager_jobs_before = eager_ctx.metrics().jobs_run.load();
  auto eager_filtered =
      *Filter(eager_arr, "a", [](double v) { return v < 100; });
  EXPECT_GE(eager_ctx.metrics().jobs_run.load() - eager_jobs_before, 2u)
      << "eager mode pays one materialization job per attribute";

  // Both modes agree on the data.
  EXPECT_EQ(mask_filtered.CountValid(), eager_filtered.CountValid());
  EXPECT_EQ(mask_filtered.Attribute("b")->CountValid(),
            eager_filtered.Attribute("b")->CountValid());
}

TEST(PlanClaimsTest, OverlapRegridShufflesLessThanTheExchange) {
  // Sec. III-A: with ghost cells built once, a regrid resolves blocks
  // that straddle chunk borders locally and ships only its output cells;
  // without them the partial block states cross the exchange. The grid
  // (5x5) does not divide the chunk shape (32x32), so blocks straddle.
  Context ctx(2);
  ChlOptions options;
  options.lon = 160;
  options.lat = 96;
  options.time = 2;
  options.chunk_lon = 32;
  options.chunk_lat = 32;
  const auto data = GenerateChl(options);
  auto attr = *ArrayRdd::FromCells(&ctx, data.meta, data.cells[0]);
  attr.Cache();
  attr.CountValid();
  auto arr = *SpangleArray::FromAttributes({{"chl", attr}});
  const std::vector<uint64_t> grid = {5, 5, 1};
  // Built and materialized once; the build's halo exchange is not part
  // of the per-query cost.
  auto overlap = OverlapArrayRdd::Build(attr, /*radius=*/4);
  overlap.Cache();
  overlap.expanded_chunks().Count();

  ctx.metrics().Reset();
  auto local = *overlap.RegridAggregateLocal(AvgAgg(), grid);
  const auto local_cells = local.CollectCells();
  const uint64_t local_bytes = ctx.metrics().shuffle_bytes.load();

  ctx.metrics().Reset();
  auto exchanged = *RegridAggregate(arr, "chl", AvgAgg(), grid);
  const auto exchanged_cells = exchanged.CollectCells();
  const uint64_t exchanged_bytes = ctx.metrics().shuffle_bytes.load();

  EXPECT_GT(local_bytes, 0u) << "the output cells still gather by chunk";
  EXPECT_LT(local_bytes, exchanged_bytes)
      << "overlap must move less than the regrid exchange";

  // Same cells either way (averages may differ in summation order).
  ASSERT_FALSE(exchanged_cells.empty());
  ASSERT_EQ(local_cells.size(), exchanged_cells.size());
  std::map<Coords, double> want;
  for (const CellValue& c : exchanged_cells) want[c.pos] = c.value;
  for (const CellValue& c : local_cells) {
    const auto it = want.find(c.pos);
    ASSERT_NE(it, want.end());
    EXPECT_NEAR(c.value, it->second, 1e-12 * std::abs(it->second));
  }
}

}  // namespace
}  // namespace spangle
