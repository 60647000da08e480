#include "matrix/block_matrix.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <unordered_map>

namespace spangle {

namespace {

/// One output tile's share of a product from one join partition: the
/// cells it touched and their sums in offset order. No byte codec, so in
/// DISTRIBUTED mode the gather shuffle keeps partials in the driver
/// instead of shipping them to the executor daemons.
struct TilePartial {
  Bitmask mask;
  std::vector<double> values;

  size_t SerializedBytes() const {
    return mask.SerializedBytes() + values.size() * sizeof(double);
  }
};

/// Dense accumulator for one output tile plus a bitmask of the cells it
/// touched. One lives per worker thread and serves every tile product and
/// partial sum that thread runs: Drain() hands out the touched cells and
/// leaves the accumulator all-zero again, so no tile pair allocates or
/// zeroes a bs² buffer.
class TileAccumulator {
 public:
  /// This thread's accumulator, sized for `num_cells`-cell tiles. Call
  /// once per accumulate-then-drain cycle.
  static TileAccumulator& ForThread(uint32_t num_cells) {
    thread_local TileAccumulator acc;
    acc.Acquire(num_cells);
    return acc;
  }

  void Add(uint32_t offset, double v) {
    values_[offset] += v;
    touched_.Set(offset);
  }

  /// Adds every cell of `p`.
  void Add(const TilePartial& p) {
    touched_.OrWith(p.mask);
    size_t idx = 0;
    p.mask.ForEachSetBit([&](size_t off) { values_[off] += p.values[idx++]; });
  }

  /// Hands out the touched cells with a non-zero sum (exact zeros are
  /// cancellations, not stored cells) as a mask plus values in offset
  /// order, and resets the accumulator.
  TilePartial Drain() {
    TilePartial out{touched_, std::vector<double>(touched_.CountAll())};
    size_t n = 0;
    touched_.ForEachSetBit([&](size_t off) {
      const double v = values_[off];
      values_[off] = 0.0;
      out.values[n] = v;
      if (v != 0.0) {
        ++n;
      } else {
        out.mask.Clear(off);
      }
    });
    out.values.resize(n);
    touched_.ClearAll();
    in_use_ = false;
    return out;
  }

 private:
  void Acquire(uint32_t num_cells) {
    // A cycle that never drained (it threw) left stale sums: start over.
    if (values_.size() != num_cells || in_use_) {
      values_.assign(num_cells, 0.0);
      touched_ = Bitmask(num_cells);
    }
    in_use_ = true;
  }

  std::vector<double> values_;
  Bitmask touched_;
  bool in_use_ = false;
};

/// A right-hand tile in CSR form. Its cells arrive offset-sorted, i.e.
/// row-major, so row j is cells[row_start[j], row_start[j + 1]) as
/// (column, value) pairs.
struct TileCsr {
  std::vector<uint32_t> row_start;
  std::vector<std::pair<uint32_t, double>> cells;
};

TileCsr RightCsr(const Chunk& b, uint32_t bs) {
  TileCsr csr;
  csr.row_start.assign(bs + 1, 0);
  csr.cells.reserve(b.num_valid());
  b.ForEachValid([&](uint32_t off, double v) {
    ++csr.row_start[off / bs + 1];
    csr.cells.emplace_back(off % bs, v);
  });
  for (uint32_t j = 0; j < bs; ++j) csr.row_start[j + 1] += csr.row_start[j];
  return csr;
}

/// A left-hand tile flattened to its valid cells, each with the base
/// offset of its output row and its contraction column, so the product's
/// hot loop neither divides nor walks a bitmask.
struct LeftCell {
  uint32_t out_row;
  uint32_t j;
  double v;
};

std::vector<LeftCell> LeftCells(const Chunk& a, uint32_t bs) {
  std::vector<LeftCell> cells;
  cells.reserve(a.num_valid());
  a.ForEachValid([&](uint32_t off, double v) {
    cells.push_back({off - off % bs, off % bs, v});
  });
  return cells;
}

/// Gustavson product a x b into `acc`: each valid a[r, j] scales row j of
/// b into output row r. Invalid (zero) cells of either tile never appear,
/// which is the "skip the pair when either operand is zero" rule of
/// Fig. 5.
void AccumulateProduct(const std::vector<LeftCell>& a, const TileCsr& b,
                       TileAccumulator* acc) {
  for (const LeftCell& c : a) {
    for (uint32_t k = b.row_start[c.j]; k < b.row_start[c.j + 1]; ++k) {
      acc->Add(c.out_row + b.cells[k].first, c.v * b.cells[k].second);
    }
  }
}

Chunk TileFromSortedCells(uint32_t cells_per_tile,
                          std::vector<std::pair<uint32_t, double>> cells) {
  const ChunkMode mode = Chunk::ChooseMode(cells_per_tile, cells.size());
  return Chunk::FromCells(cells_per_tile, std::move(cells), mode);
}

/// A tile keyed by contraction index j: (j, (row or column block, tile)).
using KeyedTile = std::pair<uint64_t, std::pair<uint64_t, Chunk>>;

/// Map side of Multiply for one join partition: pairs every left tile
/// with every right tile of the same contraction index and sums each
/// output tile's pair products in one accumulator pass. Pairs run by
/// output tile, then in arrival order, so partials are deterministic.
/// Each tile is indexed (flattened or CSR) once, on first use.
std::vector<std::pair<ChunkId, TilePartial>> MultiplyPartition(
    const std::vector<KeyedTile>& left, const std::vector<KeyedTile>& right,
    uint32_t bs, uint64_t out_nrb) {
  std::unordered_map<uint64_t, std::vector<size_t>> left_by_j;
  for (size_t i = 0; i < left.size(); ++i) {
    left_by_j[left[i].first].push_back(i);
  }
  struct TilePair {
    ChunkId out;
    size_t a;  // index into `left`
    size_t b;  // index into `right`
  };
  std::vector<TilePair> pairs;
  for (size_t r = 0; r < right.size(); ++r) {
    auto it = left_by_j.find(right[r].first);
    if (it == left_by_j.end()) continue;
    for (size_t l : it->second) {
      pairs.push_back(
          {left[l].second.first + right[r].second.first * out_nrb, l, r});
    }
  }
  std::stable_sort(pairs.begin(), pairs.end(),
                   [](const TilePair& x, const TilePair& y) {
                     return x.out < y.out;
                   });
  std::vector<std::vector<LeftCell>> left_cells(left.size());
  std::vector<TileCsr> right_csr(right.size());
  std::vector<std::pair<ChunkId, TilePartial>> out;
  for (size_t i = 0; i < pairs.size();) {
    const ChunkId id = pairs[i].out;
    TileAccumulator& acc = TileAccumulator::ForThread(bs * bs);
    for (; i < pairs.size() && pairs[i].out == id; ++i) {
      const TilePair& pair = pairs[i];
      if (left_cells[pair.a].empty()) {
        left_cells[pair.a] = LeftCells(left[pair.a].second.second, bs);
      }
      if (right_csr[pair.b].row_start.empty()) {
        right_csr[pair.b] = RightCsr(right[pair.b].second.second, bs);
      }
      AccumulateProduct(left_cells[pair.a], right_csr[pair.b], &acc);
    }
    out.emplace_back(id, acc.Drain());
  }
  return out;
}

/// Reduce side of Multiply: sums every partial of one output tile in one
/// accumulator pass, in the order given, and builds the tile; nullopt
/// when every cell cancelled.
std::optional<Chunk> SumPartials(
    const std::vector<const TilePartial*>& partials, uint32_t cpt) {
  TileAccumulator& acc = TileAccumulator::ForThread(cpt);
  for (const TilePartial* p : partials) acc.Add(*p);
  TilePartial sum = acc.Drain();
  if (sum.values.empty()) return std::nullopt;
  const ChunkMode mode = Chunk::ChooseMode(cpt, sum.values.size());
  return Chunk::FromMask(std::move(sum.mask), std::move(sum.values), mode);
}

}  // namespace

std::vector<std::pair<uint32_t, double>> MultiplyTiles(const Chunk& a,
                                                       const Chunk& b,
                                                       uint32_t bs) {
  TileAccumulator& acc = TileAccumulator::ForThread(bs * bs);
  AccumulateProduct(LeftCells(a, bs), RightCsr(b, bs), &acc);
  const TilePartial product = acc.Drain();
  std::vector<std::pair<uint32_t, double>> out;
  out.reserve(product.values.size());
  size_t idx = 0;
  product.mask.ForEachSetBit([&](size_t off) {
    out.emplace_back(static_cast<uint32_t>(off), product.values[idx++]);
  });
  return out;
}

ArrayMetadata BlockMatrix::MakeMeta(uint64_t rows, uint64_t cols,
                                    uint64_t block) {
  return ArrayMetadata({{"row", 0, rows, block, 0},
                        {"col", 0, cols, block, 0}});
}

Result<BlockMatrix> BlockMatrix::FromEntries(
    Context* ctx, uint64_t rows, uint64_t cols, uint64_t block,
    const std::vector<MatrixEntry>& entries, ModePolicy policy,
    PartitionScheme scheme, int num_partitions) {
  if (rows == 0 || cols == 0 || block == 0) {
    return Status::InvalidArgument("matrix dimensions must be positive");
  }
  if (block * block > (uint64_t{1} << 32)) {
    return Status::InvalidArgument("tile exceeds 2^32 cells");
  }
  BlockMatrix out;
  out.rows_ = rows;
  out.cols_ = cols;
  out.block_ = block;
  out.scheme_ = scheme;
  const ArrayMetadata meta = MakeMeta(rows, cols, block);
  Mapper mapper(meta);
  std::unordered_map<ChunkId, std::vector<std::pair<uint32_t, double>>>
      grouped;
  for (const auto& e : entries) {
    if (e.row >= rows || e.col >= cols) {
      return Status::OutOfRange("matrix entry outside bounds");
    }
    if (e.value == 0.0) continue;  // zero entries are not stored
    const Coords pos{static_cast<int64_t>(e.row),
                     static_cast<int64_t>(e.col)};
    grouped[mapper.ChunkIdFromCoords(pos)].emplace_back(
        mapper.LocalOffset(pos), e.value);
  }
  const uint32_t cpt = mapper.cells_per_chunk();
  std::vector<std::pair<ChunkId, Chunk>> records;
  records.reserve(grouped.size());
  for (auto& [id, cells] : grouped) {
    const ChunkMode mode = policy.fixed.has_value()
                               ? *policy.fixed
                               : Chunk::ChooseMode(cpt, cells.size());
    records.emplace_back(id, Chunk::FromCells(cpt, std::move(cells), mode));
  }
  if (num_partitions <= 0) num_partitions = ctx->default_parallelism();
  auto partitioner = std::make_shared<BlockPartitioner>(
      scheme, meta.chunks_along(0), num_partitions);
  auto pairs = ctx->ParallelizePairs<ChunkId, Chunk>(std::move(records),
                                                     std::move(partitioner));
  out.array_ = ArrayRdd(meta, std::move(pairs));
  return out;
}

double BlockMatrix::Get(uint64_t r, uint64_t c) const {
  auto result = array_.GetCell(
      {static_cast<int64_t>(r), static_cast<int64_t>(c)});
  return result.ok() ? *result : 0.0;
}

BlockMatrix BlockMatrix::Scale(double factor) const {
  BlockMatrix out = *this;
  out.array_ = array_.MapValues([factor](double v) { return v * factor; });
  return out;
}

double BlockMatrix::FrobeniusNorm() const {
  const double total = array_.chunks().AsRdd().Aggregate<double>(
      0.0,
      [](double acc, const std::pair<ChunkId, Chunk>& rec) {
        rec.second.ForEachValid([&](uint32_t, double v) { acc += v * v; });
        return acc;
      },
      [](double a, double b) { return a + b; });
  return std::sqrt(total);
}

Result<double> BlockMatrix::Trace() const {
  if (rows_ != cols_) {
    return Status::InvalidArgument("trace of a non-square matrix");
  }
  const uint64_t nrb = num_row_blocks();
  const uint32_t bs = static_cast<uint32_t>(block_);
  // Only diagonal tiles contribute.
  return array_.chunks().AsRdd().Aggregate<double>(
      0.0,
      [nrb, bs](double acc, const std::pair<ChunkId, Chunk>& rec) {
        if (rec.first % nrb != rec.first / nrb) return acc;
        rec.second.ForEachValid([&](uint32_t off, double v) {
          if (off / bs == off % bs) acc += v;
        });
        return acc;
      },
      [](double a, double b) { return a + b; });
}

std::vector<double> BlockMatrix::ToDense() const {
  std::vector<double> out(rows_ * cols_, 0.0);
  for (const auto& cell : array_.CollectCells()) {
    out[static_cast<uint64_t>(cell.pos[0]) * cols_ +
        static_cast<uint64_t>(cell.pos[1])] = cell.value;
  }
  return out;
}

namespace {

/// Element-wise combine of two co-keyed tile RDDs with pass-through for
/// one-sided tiles. scale_b = -1 gives subtraction.
Result<ArrayRdd> CombineTiles(const BlockMatrix& a, const BlockMatrix& b,
                              double scale_b) {
  auto grouped = a.array().chunks().CoGroup(b.array().chunks());
  const uint32_t cpt =
      static_cast<uint32_t>(a.array().metadata().cells_per_chunk());
  auto combined = grouped.MapValues(
      [cpt, scale_b](
          const std::pair<std::vector<Chunk>, std::vector<Chunk>>& sides) {
        std::unordered_map<uint32_t, double> acc;
        for (const Chunk& t : sides.first) {
          t.ForEachValid([&](uint32_t off, double v) { acc[off] += v; });
        }
        for (const Chunk& t : sides.second) {
          t.ForEachValid(
              [&](uint32_t off, double v) { acc[off] += scale_b * v; });
        }
        std::vector<std::pair<uint32_t, double>> cells;
        cells.reserve(acc.size());
        for (const auto& [off, v] : acc) {
          if (v != 0.0) cells.emplace_back(off, v);
        }
        std::sort(cells.begin(), cells.end());
        return TileFromSortedCells(cpt, std::move(cells));
      });
  auto nonempty = combined.Filter([](const std::pair<ChunkId, Chunk>& rec) {
    return rec.second.num_valid() > 0;
  });
  return ArrayRdd(a.array().metadata(),
                  PairRdd<ChunkId, Chunk>(nonempty.AsRdd(),
                                          nonempty.partitioner()));
}

}  // namespace

Result<BlockMatrix> BlockMatrix::Add(const BlockMatrix& other) const {
  if (rows_ != other.rows_ || cols_ != other.cols_ || block_ != other.block_) {
    return Status::InvalidArgument("matrix shape mismatch in Add");
  }
  BlockMatrix out = *this;
  SPANGLE_ASSIGN_OR_RETURN(out.array_, CombineTiles(*this, other, 1.0));
  return out;
}

Result<BlockMatrix> BlockMatrix::Subtract(const BlockMatrix& other) const {
  if (rows_ != other.rows_ || cols_ != other.cols_ || block_ != other.block_) {
    return Status::InvalidArgument("matrix shape mismatch in Subtract");
  }
  BlockMatrix out = *this;
  SPANGLE_ASSIGN_OR_RETURN(out.array_, CombineTiles(*this, other, -1.0));
  return out;
}

Result<BlockMatrix> BlockMatrix::Hadamard(const BlockMatrix& other) const {
  if (rows_ != other.rows_ || cols_ != other.cols_ || block_ != other.block_) {
    return Status::InvalidArgument("matrix shape mismatch in Hadamard");
  }
  const uint32_t cpt =
      static_cast<uint32_t>(array_.metadata().cells_per_chunk());
  // Inner join: a tile missing on either side contributes nothing.
  auto joined = array_.chunks().Join(other.array().chunks());
  auto combined = joined.MapValues(
      [cpt](const std::pair<Chunk, Chunk>& tiles) {
        // Bitwise AND of the two bitmasks selects exactly the cell pairs
        // where both operands are non-zero (Sec. IV-A).
        Bitmask both = tiles.first.FlatMask();
        both.AndWith(tiles.second.FlatMask());
        std::vector<std::pair<uint32_t, double>> cells;
        cells.reserve(both.CountAll());
        both.ForEachSetBit([&](size_t off) {
          const uint32_t o = static_cast<uint32_t>(off);
          cells.emplace_back(o, tiles.first.Value(o) * tiles.second.Value(o));
        });
        return TileFromSortedCells(cpt, std::move(cells));
      });
  auto nonempty = combined.Filter([](const std::pair<ChunkId, Chunk>& rec) {
    return rec.second.num_valid() > 0;
  });
  BlockMatrix out = *this;
  out.array_ = ArrayRdd(array_.metadata(),
                        PairRdd<ChunkId, Chunk>(nonempty.AsRdd(),
                                                nonempty.partitioner()));
  return out;
}

Result<BlockMatrix> BlockMatrix::Multiply(const BlockMatrix& other) const {
  if (cols_ != other.rows_) {
    return Status::InvalidArgument("inner dimensions differ in Multiply");
  }
  if (block_ != other.block_) {
    return Status::InvalidArgument("operands must share a block size");
  }
  const uint64_t nrb_a = num_row_blocks();
  const uint64_t nrb_b = other.num_row_blocks();
  const uint32_t bs = static_cast<uint32_t>(block_);

  // Scatter: key the left matrix by its column block (the contraction
  // index j) and the right by its row block.
  Rdd<KeyedTile> a_by_j = array_.chunks().AsRdd().Map(
      [nrb_a](const std::pair<ChunkId, Chunk>& rec) {
        return KeyedTile{rec.first / nrb_a, {rec.first % nrb_a, rec.second}};
      });
  Rdd<KeyedTile> b_by_j = other.array().chunks().AsRdd().Map(
      [nrb_b](const std::pair<ChunkId, Chunk>& rec) {
        return KeyedTile{rec.first % nrb_b, {rec.first / nrb_b, rec.second}};
      });

  // Local join (Sec. VI-A): when the left matrix is placed by column
  // block and the right by row block with equal partition counts, record
  // placement is already a function of j, so the join needs no shuffle.
  // Otherwise both sides shuffle to j mod P: with at least as many
  // partitions as contraction blocks, every join task gets at most one j.
  const bool local_ok =
      scheme_ == PartitionScheme::kByColBlock &&
      other.scheme() == PartitionScheme::kByRowBlock &&
      array_.chunks().num_partitions() ==
          other.array().chunks().num_partitions();
  if (!local_ok) {
    auto p = std::make_shared<ModuloPartitioner<uint64_t>>(
        std::max(a_by_j.num_partitions(), b_by_j.num_partitions()));
    a_by_j = ToPair(a_by_j).PartitionBy(p).AsRdd();
    b_by_j = ToPair(b_by_j).PartitionBy(p).AsRdd();
  }

  // Join fused with the tile kernel, then gather: one shuffle by output
  // tile, after which each tile's partials are summed in one pass.
  const uint64_t out_nrb = nrb_a;
  using Partial = std::pair<ChunkId, TilePartial>;
  auto partials = ToPair(a_by_j.ZipPartitions<Partial, KeyedTile>(
      b_by_j,
      [bs, out_nrb](int, const std::vector<KeyedTile>& left,
                    const std::vector<KeyedTile>& right) {
        return MultiplyPartition(left, right, bs, out_nrb);
      },
      "join"));
  const uint32_t cpt = bs * bs;
  auto tiles = partials.ReduceGroupsByKey(
      [cpt](const std::vector<const TilePartial*>& parts) {
        return SumPartials(parts, cpt);
      });
  BlockMatrix out;
  out.rows_ = rows_;
  out.cols_ = other.cols_;
  out.block_ = block_;
  out.scheme_ = PartitionScheme::kHashChunk;
  out.array_ = ArrayRdd(MakeMeta(rows_, other.cols_, block_),
                        PairRdd<ChunkId, Chunk>(tiles.AsRdd(),
                                                tiles.partitioner()));
  return out;
}

Result<BlockVector> BlockMatrix::MultiplyVector(const BlockVector& v) const {
  if (v.size() != cols_) {
    return Status::InvalidArgument("M x v dimension mismatch");
  }
  if (v.block() != block_) {
    return Status::InvalidArgument("vector block size mismatch");
  }
  const uint64_t nrb = num_row_blocks();
  const uint32_t bs = static_cast<uint32_t>(block_);
  using Keyed = std::pair<uint64_t, std::pair<uint64_t, Chunk>>;
  auto a_by_j = ToPair<uint64_t, std::pair<uint64_t, Chunk>>(
      array_.chunks().AsRdd().Map(
          [nrb](const std::pair<ChunkId, Chunk>& rec) {
            return Keyed{rec.first / nrb, {rec.first % nrb, rec.second}};
          }));
  const uint64_t rows = rows_;
  const uint64_t block = block_;
  auto partials = ToPair<uint64_t, VecBlock>(
      a_by_j.Join(v.blocks())
          .AsRdd()
          .Map([bs, rows, block](
                   const std::pair<uint64_t,
                                   std::pair<std::pair<uint64_t, Chunk>,
                                             VecBlock>>& rec) {
            const auto& [rb, tile] = rec.second.first;
            const VecBlock& vb = rec.second.second;
            VecBlock out;
            out.values.assign(
                std::min<uint64_t>(block, rows - rb * block), 0.0);
            tile.ForEachValid([&](uint32_t off, double av) {
              const uint32_t r = off / bs;
              const uint32_t j = off % bs;
              if (j < vb.values.size()) {
                out.values[r] += av * vb.values[j];
              }
            });
            return std::pair<uint64_t, VecBlock>(rb, std::move(out));
          }));
  auto reduced = partials.ReduceByKey([](const VecBlock& a,
                                         const VecBlock& b) {
    VecBlock out = a;
    for (size_t i = 0; i < out.values.size(); ++i) {
      out.values[i] += b.values[i];
    }
    return out;
  });
  // Missing row blocks (all-zero bands) still need zero blocks so the
  // result is a complete dense vector.
  std::vector<double> zeros(rows_, 0.0);
  BlockVector out = BlockVector::FromDense(ctx(), zeros, block_,
                                           v.blocks().num_partitions());
  auto merged = out.blocks().CoGroup(reduced).MapValues(
      [](const std::pair<std::vector<VecBlock>, std::vector<VecBlock>>&
             sides) {
        VecBlock blk = sides.first.front();
        for (const VecBlock& add : sides.second) {
          for (size_t i = 0; i < blk.values.size(); ++i) {
            blk.values[i] += add.values[i];
          }
        }
        return blk;
      });
  return BlockVector::FromBlocks(rows_, block_, /*is_column=*/true,
                                 std::move(merged));
}

BlockMatrix BlockMatrix::FilterRowBlocks(
    const std::shared_ptr<const std::unordered_set<uint64_t>>& keep) const {
  const uint64_t nrb = num_row_blocks();
  auto filtered = array_.chunks().Filter(
      [keep, nrb](const std::pair<ChunkId, Chunk>& rec) {
        return keep->count(rec.first % nrb) > 0;
      });
  BlockMatrix out = *this;
  out.array_ = ArrayRdd(array_.metadata(), std::move(filtered));
  return out;
}

BlockMatrix BlockMatrix::Transpose() const {
  const uint64_t nrb = num_row_blocks();
  const uint64_t t_nrb = num_col_blocks();
  const uint32_t bs = static_cast<uint32_t>(block_);
  auto transposed = array_.chunks().AsRdd().Map(
      [nrb, t_nrb, bs](const std::pair<ChunkId, Chunk>& rec) {
        const uint64_t rb = rec.first % nrb;
        const uint64_t cb = rec.first / nrb;
        const ChunkId t_id = cb + rb * t_nrb;
        std::vector<std::pair<uint32_t, double>> cells;
        cells.reserve(rec.second.num_valid());
        rec.second.ForEachValid([&](uint32_t off, double v) {
          cells.emplace_back((off % bs) * bs + off / bs, v);
        });
        std::sort(cells.begin(), cells.end());
        return std::pair<ChunkId, Chunk>(
            t_id, TileFromSortedCells(bs * bs, std::move(cells)));
      });
  // Tile ids changed: re-place them (one shuffle).
  auto placed = ToPair<ChunkId, Chunk>(std::move(transposed))
                    .PartitionBy(std::make_shared<HashPartitioner<ChunkId>>(
                        array_.chunks().num_partitions()));
  BlockMatrix out;
  out.rows_ = cols_;
  out.cols_ = rows_;
  out.block_ = block_;
  out.scheme_ = PartitionScheme::kHashChunk;
  out.array_ = ArrayRdd(MakeMeta(cols_, rows_, block_), std::move(placed));
  return out;
}

Result<BlockMatrix> BlockMatrix::TransposeSelfMultiply() const {
  return Transpose().Multiply(*this);
}

Result<BlockVector> BlockMatrix::LeftMultiplyVector(
    const BlockVector& v) const {
  if (v.size() != rows_) {
    return Status::InvalidArgument("vT x M dimension mismatch");
  }
  if (v.block() != block_) {
    return Status::InvalidArgument("vector block size mismatch");
  }
  const uint64_t nrb = num_row_blocks();
  const uint32_t bs = static_cast<uint32_t>(block_);
  using Keyed = std::pair<uint64_t, std::pair<uint64_t, Chunk>>;
  auto a_by_rb = ToPair<uint64_t, std::pair<uint64_t, Chunk>>(
      array_.chunks().AsRdd().Map(
          [nrb](const std::pair<ChunkId, Chunk>& rec) {
            return Keyed{rec.first % nrb, {rec.first / nrb, rec.second}};
          }));
  const uint64_t cols = cols_;
  const uint64_t block = block_;
  auto partials = ToPair<uint64_t, VecBlock>(
      a_by_rb.Join(v.blocks())
          .AsRdd()
          .Map([bs, cols, block](
                   const std::pair<uint64_t,
                                   std::pair<std::pair<uint64_t, Chunk>,
                                             VecBlock>>& rec) {
            const auto& [cb, tile] = rec.second.first;
            const VecBlock& vb = rec.second.second;
            VecBlock out;
            out.values.assign(
                std::min<uint64_t>(block, cols - cb * block), 0.0);
            tile.ForEachValid([&](uint32_t off, double av) {
              const uint32_t r = off / bs;
              const uint32_t c = off % bs;
              if (r < vb.values.size() && c < out.values.size()) {
                out.values[c] += av * vb.values[r];
              }
            });
            return std::pair<uint64_t, VecBlock>(cb, std::move(out));
          }));
  auto reduced =
      partials.ReduceByKey([](const VecBlock& a, const VecBlock& b) {
        VecBlock out = a;
        for (size_t i = 0; i < out.values.size(); ++i) {
          out.values[i] += b.values[i];
        }
        return out;
      });
  std::vector<double> zeros(cols_, 0.0);
  BlockVector base = BlockVector::FromDense(ctx(), zeros, block_,
                                            v.blocks().num_partitions());
  auto merged = base.blocks().CoGroup(reduced).MapValues(
      [](const std::pair<std::vector<VecBlock>, std::vector<VecBlock>>&
             sides) {
        VecBlock blk = sides.first.front();
        for (const VecBlock& add : sides.second) {
          for (size_t i = 0; i < blk.values.size(); ++i) {
            blk.values[i] += add.values[i];
          }
        }
        return blk;
      });
  return BlockVector::FromBlocks(cols_, block_, /*is_column=*/false,
                                 std::move(merged));
}

}  // namespace spangle
