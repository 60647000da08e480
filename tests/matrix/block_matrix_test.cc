#include "matrix/block_matrix.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>
#include <utility>

#include "common/random.h"

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

std::vector<double> DenseOf(const std::vector<MatrixEntry>& entries,
                            uint64_t rows, uint64_t cols) {
  std::vector<double> m(rows * cols, 0.0);
  for (const auto& e : entries) m[e.row * cols + e.col] = e.value;
  return m;
}

std::vector<double> RefMultiply(const std::vector<double>& a,
                                const std::vector<double>& b, uint64_t m,
                                uint64_t k, uint64_t n) {
  std::vector<double> out(m * n, 0.0);
  for (uint64_t i = 0; i < m; ++i) {
    for (uint64_t j = 0; j < k; ++j) {
      const double av = a[i * k + j];
      if (av == 0.0) continue;
      for (uint64_t c = 0; c < n; ++c) out[i * n + c] += av * b[j * n + c];
    }
  }
  return out;
}

void ExpectDenseNear(const std::vector<double>& got,
                     const std::vector<double>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i], want[i], 1e-9) << "index " << i;
  }
}

TEST(BlockMatrixTest, FromEntriesBasics) {
  Context ctx(2);
  auto entries = RandomEntries(20, 14, 0.2, 1);
  auto m = *BlockMatrix::FromEntries(&ctx, 20, 14, 8, entries);
  EXPECT_EQ(m.rows(), 20u);
  EXPECT_EQ(m.cols(), 14u);
  EXPECT_EQ(m.num_row_blocks(), 3u);
  EXPECT_EQ(m.num_col_blocks(), 2u);
  EXPECT_EQ(m.NumNonZero(), entries.size());
  for (const auto& e : entries) {
    EXPECT_DOUBLE_EQ(m.Get(e.row, e.col), e.value);
  }
  EXPECT_DOUBLE_EQ(m.Get(0, 13), DenseOf(entries, 20, 14)[13]);
}

TEST(BlockMatrixTest, ZeroEntriesNotStored) {
  Context ctx(2);
  std::vector<MatrixEntry> entries = {{0, 0, 0.0}, {1, 1, 5.0}};
  auto m = *BlockMatrix::FromEntries(&ctx, 4, 4, 2, entries);
  EXPECT_EQ(m.NumNonZero(), 1u) << "zero is invalid (Sec. IV-A)";
}

TEST(BlockMatrixTest, ValidatesInput) {
  Context ctx(2);
  EXPECT_FALSE(BlockMatrix::FromEntries(&ctx, 0, 4, 2, {}).ok());
  EXPECT_FALSE(
      BlockMatrix::FromEntries(&ctx, 4, 4, 2, {{5, 0, 1.0}}).ok());
}

TEST(BlockMatrixTest, AddAndSubtract) {
  Context ctx(2);
  auto ea = RandomEntries(12, 12, 0.3, 2);
  auto eb = RandomEntries(12, 12, 0.3, 3);
  auto a = *BlockMatrix::FromEntries(&ctx, 12, 12, 5, ea);
  auto b = *BlockMatrix::FromEntries(&ctx, 12, 12, 5, eb);
  auto sum = *a.Add(b);
  auto diff = *a.Subtract(b);
  auto da = DenseOf(ea, 12, 12), db = DenseOf(eb, 12, 12);
  std::vector<double> want_sum(144), want_diff(144);
  for (int i = 0; i < 144; ++i) {
    want_sum[i] = da[i] + db[i];
    want_diff[i] = da[i] - db[i];
  }
  ExpectDenseNear(sum.ToDense(), want_sum);
  ExpectDenseNear(diff.ToDense(), want_diff);
}

TEST(BlockMatrixTest, AddIsShuffleFreeWhenCoPartitioned) {
  Context ctx(2);
  auto a = *BlockMatrix::FromEntries(&ctx, 32, 32, 8,
                                     RandomEntries(32, 32, 0.2, 4));
  auto b = *BlockMatrix::FromEntries(&ctx, 32, 32, 8,
                                     RandomEntries(32, 32, 0.2, 5));
  ctx.metrics().Reset();
  a.Add(b)->NumNonZero();
  EXPECT_EQ(ctx.metrics().shuffles.load(), 0u)
      << "addition is embarrassingly parallel (Sec. V-A4)";
}

TEST(BlockMatrixTest, HadamardSkipsZeroPairs) {
  Context ctx(2);
  std::vector<MatrixEntry> ea = {{0, 0, 2.0}, {1, 1, 3.0}, {2, 2, 4.0}};
  std::vector<MatrixEntry> eb = {{1, 1, 10.0}, {2, 2, 0.5}, {3, 3, 9.0}};
  auto a = *BlockMatrix::FromEntries(&ctx, 8, 8, 4, ea);
  auto b = *BlockMatrix::FromEntries(&ctx, 8, 8, 4, eb);
  auto h = *a.Hadamard(b);
  EXPECT_EQ(h.NumNonZero(), 2u);
  EXPECT_DOUBLE_EQ(h.Get(1, 1), 30.0);
  EXPECT_DOUBLE_EQ(h.Get(2, 2), 2.0);
}

std::vector<std::pair<uint32_t, double>> RandomTileCells(uint32_t bs,
                                                          double density,
                                                          Rng* rng) {
  std::vector<std::pair<uint32_t, double>> cells;
  for (uint32_t i = 0; i < bs * bs; ++i) {
    if (rng->NextBool(density)) cells.emplace_back(i, rng->NextDouble(-1, 1));
  }
  return cells;
}

/// MultiplyTiles(a, b) against a dense triple loop: offsets strictly
/// ascending, no stored zero, every cell within 1e-9 of the reference.
void ExpectTileProductMatches(
    const std::vector<std::pair<uint32_t, double>>& ac,
    const std::vector<std::pair<uint32_t, double>>& bc, uint32_t bs,
    ChunkMode mode_a, ChunkMode mode_b) {
  Chunk a = Chunk::FromCells(bs * bs, ac, mode_a);
  Chunk b = Chunk::FromCells(bs * bs, bc, mode_b);
  std::vector<double> da(bs * bs, 0), db(bs * bs, 0), want(bs * bs, 0);
  for (auto& [o, v] : ac) da[o] = v;
  for (auto& [o, v] : bc) db[o] = v;
  for (uint32_t r = 0; r < bs; ++r) {
    for (uint32_t j = 0; j < bs; ++j) {
      for (uint32_t c = 0; c < bs; ++c) {
        want[r * bs + c] += da[r * bs + j] * db[j * bs + c];
      }
    }
  }
  const auto cells = MultiplyTiles(a, b, bs);
  std::vector<double> got(bs * bs, 0);
  for (size_t i = 0; i < cells.size(); ++i) {
    if (i > 0) {
      EXPECT_LT(cells[i - 1].first, cells[i].first);
    }
    EXPECT_NE(cells[i].second, 0.0) << "offset " << cells[i].first;
    got[cells[i].first] = cells[i].second;
  }
  for (uint32_t i = 0; i < bs * bs; ++i) {
    EXPECT_NEAR(got[i], want[i], 1e-9) << "offset " << i;
  }
}

TEST(MultiplyTilesTest, MatchesDenseReference) {
  Rng rng(6);
  const uint32_t bs = 16;
  std::vector<std::pair<uint32_t, double>> ac, bc;
  for (uint32_t i = 0; i < bs * bs; ++i) {
    if (rng.NextBool(0.3)) ac.emplace_back(i, rng.NextDouble(-1, 1));
    if (rng.NextBool(0.3)) bc.emplace_back(i, rng.NextDouble(-1, 1));
  }
  for (ChunkMode mode_a : {ChunkMode::kDense, ChunkMode::kSparse,
                           ChunkMode::kSuperSparse}) {
    for (ChunkMode mode_b : {ChunkMode::kDense, ChunkMode::kSparse,
                             ChunkMode::kSuperSparse}) {
      SCOPED_TRACE(std::string(ChunkModeName(mode_a)) + " x " +
                   ChunkModeName(mode_b));
      ExpectTileProductMatches(ac, bc, bs, mode_a, mode_b);
    }
  }
}

TEST(MultiplyTilesTest, VerySparseTilesMatchDenseReference) {
  // A handful of products in a 4096-cell tile, where the dense
  // accumulator stays almost empty. Includes a pair with no shared index.
  Rng rng(8);
  const uint32_t bs = 64;
  const auto ac = RandomTileCells(bs, 0.005, &rng);
  const auto bc = RandomTileCells(bs, 0.005, &rng);
  ExpectTileProductMatches(ac, bc, bs, ChunkMode::kSuperSparse,
                           ChunkMode::kSuperSparse);
  // a's only cell sits in column 5; b has nothing in row 5.
  Chunk a = Chunk::FromCells(bs * bs, {{3 * bs + 5, 2.0}},
                             ChunkMode::kSuperSparse);
  Chunk b = Chunk::FromCells(bs * bs, {{4 * bs + 1, 3.0}},
                             ChunkMode::kSuperSparse);
  EXPECT_TRUE(MultiplyTiles(a, b, bs).empty());
}

TEST(MultiplyTilesTest, ReusedAccumulatorCarriesNothingAcrossCalls) {
  // Consecutive calls on one thread share the kernel's accumulator; each
  // must see only its own products, including across a block-size change.
  Rng rng(9);
  for (uint32_t bs : {16u, 16u, 8u, 8u, 32u, 16u}) {
    SCOPED_TRACE("bs=" + std::to_string(bs));
    const auto ac = RandomTileCells(bs, 0.4, &rng);
    const auto bc = RandomTileCells(bs, 0.4, &rng);
    ExpectTileProductMatches(ac, bc, bs, ChunkMode::kSparse,
                             ChunkMode::kDense);
  }
}

class MultiplyShapeTest
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(MultiplyShapeTest, MatchesDenseReference) {
  const auto [m, k, n, bs] = GetParam();
  Context ctx(2);
  auto ea = RandomEntries(m, k, 0.25, 100 + m);
  auto eb = RandomEntries(k, n, 0.25, 200 + n);
  auto a = *BlockMatrix::FromEntries(&ctx, m, k, bs, ea);
  auto b = *BlockMatrix::FromEntries(&ctx, k, n, bs, eb);
  auto c = *a.Multiply(b);
  EXPECT_EQ(c.rows(), static_cast<uint64_t>(m));
  EXPECT_EQ(c.cols(), static_cast<uint64_t>(n));
  ExpectDenseNear(c.ToDense(), RefMultiply(DenseOf(ea, m, k),
                                           DenseOf(eb, k, n), m, k, n));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MultiplyShapeTest,
    ::testing::Values(std::tuple{8, 8, 8, 4}, std::tuple{16, 8, 12, 4},
                      std::tuple{5, 7, 3, 4}, std::tuple{20, 20, 20, 7},
                      std::tuple{32, 16, 8, 8}));

TEST(BlockMatrixTest, MultiplyValidatesShapes) {
  Context ctx(2);
  auto a = *BlockMatrix::FromEntries(&ctx, 8, 8, 4, {});
  auto b = *BlockMatrix::FromEntries(&ctx, 9, 8, 4, {});
  auto c = *BlockMatrix::FromEntries(&ctx, 8, 8, 2, {});
  EXPECT_FALSE(a.Multiply(b).ok());
  EXPECT_FALSE(a.Multiply(c).ok());
}

TEST(BlockMatrixTest, LocalJoinMultiplyShufflesLess) {
  Context ctx(2);
  const uint64_t n = 64, bs = 8;
  auto ea = RandomEntries(n, n, 0.1, 7);
  auto eb = RandomEntries(n, n, 0.1, 8);
  auto b = *BlockMatrix::FromEntries(&ctx, n, n, bs, eb, ModePolicy::Auto(),
                                     PartitionScheme::kByRowBlock, 4);
  // The left operand placed by column block makes the join local; placed
  // by row block, both operands shuffle to the join.
  auto multiply = [&](PartitionScheme left_scheme) {
    auto a = *BlockMatrix::FromEntries(&ctx, n, n, bs, ea, ModePolicy::Auto(),
                                       left_scheme, 4);
    ctx.metrics().Reset();
    auto c = *a.Multiply(b);
    c.NumNonZero();
    return std::make_tuple(c, ctx.metrics().shuffles.load(),
                           ctx.metrics().shuffle_bytes.load());
  };
  const auto [local, local_shuffles, local_bytes] =
      multiply(PartitionScheme::kByColBlock);
  const auto [shuffled, shuffled_shuffles, shuffled_bytes] =
      multiply(PartitionScheme::kByRowBlock);

  EXPECT_LT(local_shuffles, shuffled_shuffles)
      << "local join removes the two input shuffles (Sec. VI-A)";
  EXPECT_LT(local_bytes, shuffled_bytes);
  // Same numbers either way.
  ExpectDenseNear(local.ToDense(), shuffled.ToDense());
}

TEST(BlockMatrixTest, MultiplyDropsExactCancellations) {
  // Integer entries make the cancellations exact. With 2x2 tiles:
  //   C(0,0) = 1 - 1 and C(1,1) = 3 - 3 cancel across contraction tiles
  //   (in the gather), C(2,0) = 1 - 1 inside one tile pair (in the
  //   kernel), and output tile (row block 0, col block 1) cancels whole.
  const std::vector<MatrixEntry> ea = {
      {0, 0, 1}, {0, 2, 1}, {1, 1, 1}, {1, 3, 1}, {2, 0, 1}, {2, 1, 1}};
  const std::vector<MatrixEntry> eb = {
      {0, 0, 1},  {0, 1, 2},  {0, 2, 5}, {1, 0, -1}, {1, 1, 3},
      {2, 0, -1}, {2, 2, -5}, {3, 1, -3}};
  const std::vector<double> want = {0, 2, 0, 0,  //
                                    -1, 0, 0, 0,  //
                                    0, 5, 5, 0,  //
                                    0, 0, 0, 0};
  // Left by column block: local join. Left by row block, or both hashed:
  // shuffle join.
  const std::pair<PartitionScheme, PartitionScheme> placements[] = {
      {PartitionScheme::kByColBlock, PartitionScheme::kByRowBlock},
      {PartitionScheme::kByRowBlock, PartitionScheme::kByRowBlock},
      {PartitionScheme::kHashChunk, PartitionScheme::kHashChunk}};
  for (const auto& [left, right] : placements) {
    SCOPED_TRACE("left scheme " + std::to_string(static_cast<int>(left)) +
                 ", right scheme " + std::to_string(static_cast<int>(right)));
    Context ctx(2);
    auto a = *BlockMatrix::FromEntries(&ctx, 4, 4, 2, ea, ModePolicy::Auto(),
                                       left, 2);
    auto b = *BlockMatrix::FromEntries(&ctx, 4, 4, 2, eb, ModePolicy::Auto(),
                                       right, 2);
    auto c = *a.Multiply(b);
    EXPECT_EQ(c.ToDense(), want);
    EXPECT_EQ(c.NumNonZero(), 4u) << "cancelled cells are not stored";
    for (const auto& [id, tile] : c.array().chunks().Collect()) {
      EXPECT_NE(id, 2u) << "fully cancelled tile must be absent";
      tile.ForEachValid([](uint32_t off, double v) {
        EXPECT_NE(v, 0.0) << "offset " << off;
      });
    }
  }
}

TEST(BlockMatrixTest, ShuffleJoinGivesEachPartitionOneContractionIndex) {
  // 8 contraction blocks on 8 join partitions: each partition must get
  // exactly one j. Hashing 8 consecutive keys onto 8 partitions collides
  // and leaves a partition idle.
  Context ctx(2);
  const uint64_t n = 64, bs = 8;
  const int parts = 8;
  auto a = *BlockMatrix::FromEntries(&ctx, n, n, bs,
                                     RandomEntries(n, n, 0.2, 14),
                                     ModePolicy::Auto(),
                                     PartitionScheme::kHashChunk, parts);
  auto b = *BlockMatrix::FromEntries(&ctx, n, n, bs,
                                     RandomEntries(n, n, 0.2, 15),
                                     ModePolicy::Auto(),
                                     PartitionScheme::kHashChunk, parts);
  ASSERT_EQ(a.num_col_blocks(), static_cast<uint64_t>(parts));
  auto c = *a.Multiply(b);
  c.NumNonZero();  // materializes the scatter shuffles

  // Both scatter shuffles key tiles by j: (j, (row/col block, tile)).
  using KeyedTile = std::pair<uint64_t, std::pair<uint64_t, Chunk>>;
  std::vector<internal::NodeBase*> stack = {c.array().chunks().AsRdd().node()};
  int scatters = 0;
  while (!stack.empty()) {
    internal::NodeBase* node = stack.back();
    stack.pop_back();
    for (internal::NodeBase* parent : node->Parents()) stack.push_back(parent);
    if (node->name() != "partitionBy") continue;
    auto* keyed = dynamic_cast<internal::Node<KeyedTile>*>(node);
    ASSERT_NE(keyed, nullptr);
    ASSERT_EQ(keyed->num_partitions(), parts);
    ++scatters;
    std::set<uint64_t> seen;
    for (int p = 0; p < parts; ++p) {
      std::set<uint64_t> js;
      for (const auto& rec : *keyed->GetPartition(p)) js.insert(rec.first);
      EXPECT_EQ(js.size(), 1u) << "partition " << p;
      seen.insert(js.begin(), js.end());
    }
    EXPECT_EQ(seen.size(), static_cast<size_t>(parts));
  }
  EXPECT_EQ(scatters, 2);
}

TEST(BlockMatrixTest, MultiplyVectorMatchesReference) {
  Context ctx(2);
  const uint64_t m = 20, n = 12, bs = 5;
  auto entries = RandomEntries(m, n, 0.3, 9);
  auto a = *BlockMatrix::FromEntries(&ctx, m, n, bs, entries);
  std::vector<double> x(n);
  for (uint64_t i = 0; i < n; ++i) x[i] = 0.5 * i - 2;
  auto v = BlockVector::FromDense(&ctx, x, bs);
  auto y = *a.MultiplyVector(v);
  EXPECT_EQ(y.size(), m);
  EXPECT_TRUE(y.is_column());
  auto dense = DenseOf(entries, m, n);
  auto got = y.ToDense();
  for (uint64_t r = 0; r < m; ++r) {
    double want = 0;
    for (uint64_t c = 0; c < n; ++c) want += dense[r * n + c] * x[c];
    EXPECT_NEAR(got[r], want, 1e-9);
  }
}

TEST(BlockMatrixTest, LeftMultiplyVectorMatchesReference) {
  Context ctx(2);
  const uint64_t m = 12, n = 20, bs = 5;
  auto entries = RandomEntries(m, n, 0.3, 10);
  auto a = *BlockMatrix::FromEntries(&ctx, m, n, bs, entries);
  std::vector<double> x(m);
  for (uint64_t i = 0; i < m; ++i) x[i] = 1.0 - 0.3 * i;
  auto v = BlockVector::FromDense(&ctx, x, bs);
  auto y = *a.LeftMultiplyVector(v);
  EXPECT_EQ(y.size(), n);
  EXPECT_FALSE(y.is_column()) << "vT M is a row vector";
  auto dense = DenseOf(entries, m, n);
  auto got = y.ToDense();
  for (uint64_t c = 0; c < n; ++c) {
    double want = 0;
    for (uint64_t r = 0; r < m; ++r) want += dense[r * n + c] * x[r];
    EXPECT_NEAR(got[c], want, 1e-9);
  }
}

TEST(BlockMatrixTest, VectorMultiplyDimensionChecks) {
  Context ctx(2);
  auto a = *BlockMatrix::FromEntries(&ctx, 8, 6, 4, {{0, 0, 1.0}});
  auto wrong_size = BlockVector::FromDense(&ctx, std::vector<double>(8), 4);
  auto wrong_block = BlockVector::FromDense(&ctx, std::vector<double>(6), 3);
  EXPECT_FALSE(a.MultiplyVector(wrong_size).ok());
  EXPECT_FALSE(a.MultiplyVector(wrong_block).ok());
  EXPECT_FALSE(a.LeftMultiplyVector(BlockVector::FromDense(
                                        &ctx, std::vector<double>(6), 4))
                   .ok());
}

TEST(BlockMatrixTest, TransposeMatchesReference) {
  Context ctx(2);
  auto entries = RandomEntries(10, 14, 0.25, 11);
  auto a = *BlockMatrix::FromEntries(&ctx, 10, 14, 4, entries);
  auto t = a.Transpose();
  EXPECT_EQ(t.rows(), 14u);
  EXPECT_EQ(t.cols(), 10u);
  for (const auto& e : entries) {
    EXPECT_DOUBLE_EQ(t.Get(e.col, e.row), e.value);
  }
  EXPECT_EQ(t.NumNonZero(), entries.size());
}

TEST(BlockMatrixTest, TransposeSelfMultiply) {
  Context ctx(2);
  const uint64_t m = 12, n = 8, bs = 4;
  auto entries = RandomEntries(m, n, 0.3, 12);
  auto a = *BlockMatrix::FromEntries(&ctx, m, n, bs, entries);
  auto mtm = *a.TransposeSelfMultiply();
  EXPECT_EQ(mtm.rows(), n);
  EXPECT_EQ(mtm.cols(), n);
  auto dense = DenseOf(entries, m, n);
  auto got = mtm.ToDense();
  for (uint64_t i = 0; i < n; ++i) {
    for (uint64_t j = 0; j < n; ++j) {
      double want = 0;
      for (uint64_t r = 0; r < m; ++r) {
        want += dense[r * n + i] * dense[r * n + j];
      }
      EXPECT_NEAR(got[i * n + j], want, 1e-9);
    }
  }
}

TEST(BlockMatrixTest, SparseMatrixMemoryFootprint) {
  Context ctx(2);
  auto sparse_entries = RandomEntries(256, 256, 0.01, 13);
  auto sparse = *BlockMatrix::FromEntries(&ctx, 256, 256, 64, sparse_entries,
                                          ModePolicy::Auto());
  auto dense_mode =
      *BlockMatrix::FromEntries(&ctx, 256, 256, 64, sparse_entries,
                                ModePolicy::Fixed(ChunkMode::kDense));
  EXPECT_LT(sparse.MemoryBytes(), dense_mode.MemoryBytes() / 4);
}

}  // namespace
}  // namespace spangle
