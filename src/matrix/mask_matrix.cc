#include "matrix/mask_matrix.h"

#include <algorithm>
#include <optional>
#include <unordered_map>

#include "matrix/partition.h"

namespace spangle {

namespace {

// y[r] += x[c] for every set bit r * block + c of `tile`, straight off the
// stored bitmask. Bits arrive in increasing order, so the row (and its
// division) changes only when a bit crosses into a later row.
void AccumulateTile(const MaskTile& tile, uint64_t block,
                    const std::vector<double>& x, std::vector<double>& y) {
  const double* in = x.data();
  double* out = y.data();
  uint64_t row = 0;
  uint64_t row_begin = 0;
  uint64_t row_end = block;
  tile.ForEachSetBit([&](size_t off) {
    if (off >= row_end) {
      row = off / block;
      row_begin = row * block;
      row_end = row_begin + block;
    }
    out[row] += in[off - row_begin];
  });
}

}  // namespace

Result<MaskMatrix> MaskMatrix::FromEdges(
    Context* ctx, uint64_t n, uint64_t block,
    const std::vector<std::pair<uint64_t, uint64_t>>& edges,
    bool force_hierarchical, int num_partitions) {
  if (n == 0 || block == 0) {
    return Status::InvalidArgument("matrix dimensions must be positive");
  }
  if (block * block > (uint64_t{1} << 32)) {
    return Status::InvalidArgument("tile exceeds 2^32 cells");
  }
  MaskMatrix out;
  out.n_ = n;
  out.block_ = block;
  const uint64_t nb = out.num_blocks_1d();
  const uint64_t cells = block * block;
  // One sort groups the set cells by tile and orders them within it, so
  // each tile is built from its own offsets with no flat mask per tile.
  std::vector<std::pair<ChunkId, uint32_t>> set_cells;
  set_cells.reserve(edges.size());
  for (const auto& [dst, src] : edges) {
    if (dst >= n || src >= n) return Status::OutOfRange("edge out of range");
    set_cells.emplace_back(dst / block + (src / block) * nb,
                           static_cast<uint32_t>((dst % block) * block +
                                                 (src % block)));
  }
  std::sort(set_cells.begin(), set_cells.end());
  set_cells.erase(std::unique(set_cells.begin(), set_cells.end()),
                  set_cells.end());
  std::vector<std::pair<ChunkId, MaskTile>> records;
  std::vector<uint32_t> offsets;
  for (size_t i = 0; i < set_cells.size();) {
    const ChunkId id = set_cells[i].first;
    offsets.clear();
    for (; i < set_cells.size() && set_cells[i].first == id; ++i) {
      offsets.push_back(set_cells[i].second);
    }
    MaskTile tile;
    // Hierarchical when the tile is so empty that dropping all-zero mask
    // words pays (same rule as Chunk::ChooseMode's super-sparse bound).
    tile.hierarchical = force_hierarchical || offsets.size() * 64 < cells;
    if (tile.hierarchical) {
      tile.h = HierarchicalBitmask::FromSortedBits(cells, offsets);
    } else {
      tile.flat = Bitmask(cells);
      for (uint32_t off : offsets) tile.flat.Set(off);
      tile.flat.BuildMilestones();
    }
    records.emplace_back(id, std::move(tile));
  }
  if (num_partitions <= 0) num_partitions = ctx->default_parallelism();
  // By column block: tile (rb, cb) lands where HashPartitioner(P) puts
  // vector block cb, which makes A' . v a local join.
  auto partitioner = std::make_shared<BlockPartitioner>(
      PartitionScheme::kByColBlock, nb, num_partitions);
  out.tiles_ = ctx->ParallelizePairs<ChunkId, MaskTile>(std::move(records),
                                                        std::move(partitioner));
  return out;
}

uint64_t MaskMatrix::NumEdges() const {
  return tiles_.AsRdd().Aggregate<uint64_t>(
      0,
      [](uint64_t acc, const std::pair<ChunkId, MaskTile>& rec) {
        return acc + rec.second.CountAll();
      },
      [](uint64_t a, uint64_t b) { return a + b; });
}

size_t MaskMatrix::MemoryBytes() const {
  return tiles_.AsRdd().Aggregate<size_t>(
      0,
      [](size_t acc, const std::pair<ChunkId, MaskTile>& rec) {
        return acc + rec.second.MemoryBytes();
      },
      [](size_t a, size_t b) { return a + b; });
}

Result<BlockVector> MaskMatrix::MultiplyVector(const BlockVector& v) const {
  if (v.size() != n_) {
    return Status::InvalidArgument("A' x v dimension mismatch");
  }
  if (v.block() != block_) {
    return Status::InvalidArgument("vector block size mismatch");
  }
  // Vector block b must sit on the partition holding column block b of
  // the matrix. A vector placed otherwise is re-placed (it is n doubles;
  // the matrix never moves).
  using Tile = std::pair<ChunkId, MaskTile>;
  using Block = std::pair<uint64_t, VecBlock>;
  auto by_block =
      std::make_shared<HashPartitioner<uint64_t>>(tiles_.num_partitions());
  PairRdd<uint64_t, VecBlock> x = v.blocks();
  if (x.partitioner() == nullptr || !x.partitioner()->Equals(*by_block)) {
    x = x.PartitionBy(by_block);
  }
  const uint64_t n = n_;
  const uint64_t block = block_;
  const uint64_t nb = num_blocks_1d();
  auto partials = tiles_.AsRdd().ZipPartitions<Block, Block>(
      x.AsRdd(),
      [n, block, nb](int, const std::vector<Tile>& tiles,
                     const std::vector<Block>& blocks) {
        // One dense partial per row block: seeded for every vector block
        // held here (so each row block of the result exists, zero when no
        // edge reaches it), then grown by the tiles in partition order.
        std::vector<Block> out;
        out.reserve(blocks.size());
        std::unordered_map<uint64_t, size_t> slot;
        auto partial = [&](uint64_t rb) -> std::vector<double>& {
          auto [it, fresh] = slot.try_emplace(rb, out.size());
          if (fresh) {
            out.emplace_back(rb, VecBlock());
            out.back().second.values.assign(
                std::min<uint64_t>(block, n - rb * block), 0.0);
          }
          return out[it->second].second.values;
        };
        std::unordered_map<uint64_t, const std::vector<double>*> xs;
        for (const auto& [b, vb] : blocks) {
          xs.emplace(b, &vb.values);
          partial(b);
        }
        for (const auto& [id, tile] : tiles) {
          const uint64_t cb = id / nb;
          auto it = xs.find(cb);
          if (it == xs.end()) continue;  // an absent vector block is zero
          SPANGLE_CHECK_EQ(it->second->size(),
                           std::min<uint64_t>(block, n - cb * block));
          AccumulateTile(tile, block, *it->second, partial(id % nb));
        }
        return out;
      },
      "multiplyVector");
  // The gather: every partial of a row block summed in one pass, in
  // map-partition order, placed like `v` so the next element-wise op on
  // the result joins locally.
  auto out_partitioner = v.blocks().partitioner();
  if (out_partitioner == nullptr) out_partitioner = by_block;
  auto sums = ToPair<uint64_t, VecBlock>(std::move(partials))
                  .ReduceGroupsByKey(
                      [](const std::vector<const VecBlock*>& parts) {
                        VecBlock sum = *parts.front();
                        for (size_t i = 1; i < parts.size(); ++i) {
                          const std::vector<double>& add = parts[i]->values;
                          for (size_t j = 0; j < sum.values.size(); ++j) {
                            sum.values[j] += add[j];
                          }
                        }
                        return std::optional<VecBlock>(std::move(sum));
                      },
                      std::move(out_partitioner));
  return BlockVector::FromBlocks(n_, block_, /*is_column=*/true,
                                 std::move(sums));
}

std::vector<uint64_t> MaskMatrix::ColumnDegrees() const {
  const uint64_t nb = num_blocks_1d();
  const uint32_t bs = static_cast<uint32_t>(block_);
  auto per_tile = tiles_.AsRdd().Map(
      [nb, bs](const std::pair<ChunkId, MaskTile>& rec) {
        const uint64_t cb = rec.first / nb;
        std::vector<uint64_t> counts(bs, 0);
        rec.second.ForEachSetBit(
            [&](size_t off) { ++counts[static_cast<uint32_t>(off) % bs]; });
        return std::make_pair(cb, std::move(counts));
      });
  std::vector<uint64_t> degrees(n_, 0);
  for (const auto& [cb, counts] : per_tile.Collect()) {
    const uint64_t base = cb * block_;
    for (uint32_t c = 0; c < bs && base + c < n_; ++c) {
      degrees[base + c] += counts[c];
    }
  }
  return degrees;
}

}  // namespace spangle
