#ifndef SPANGLE_ML_PAGERANK_H_
#define SPANGLE_ML_PAGERANK_H_

#include <functional>
#include <utility>
#include <vector>

#include "common/result.h"
#include "engine/engine.h"

namespace spangle {

/// Options for the Spangle PageRank (paper Sec. VI-B).
struct PageRankOptions {
  double damping = 0.85;       // alpha
  int iterations = 20;         // maximum power-method iterations
  uint64_t block = 1024;       // tile edge length of A'
  bool super_sparse = false;   // force hierarchical tiles (LiveJournal mode)
  int num_partitions = 0;      // 0 = context default

  /// The paper evaluates the basic variant (dangling mass leaks); this
  /// extension redistributes dangling rank uniformly so ranks stay a
  /// probability distribution.
  bool redistribute_dangling = false;
  /// > 0 stops early once the L1 change between iterations drops below
  /// this (a standard PageRank variant; 0 keeps the fixed count).
  double tolerance = 0.0;

  /// Storage level for the cached iterate (the rank vector). A' itself is
  /// always cached MEMORY_ONLY: it is a source, re-read without a copy.
  StorageLevel storage_level = StorageLevel::kMemoryOnly;

  /// Called at the end of every power iteration with (iteration, delta).
  /// Used by the fault-tolerance tests to inject executor failures
  /// mid-computation; leave empty in production runs.
  std::function<void(int, double)> on_iteration;
};

struct PageRankResult {
  std::vector<double> ranks;
  std::vector<double> iteration_seconds;  // wall time per power iteration
  std::vector<double> deltas;             // L1 change per iteration
  size_t matrix_bytes = 0;                // in-memory size of A'
  bool converged = false;                 // hit `tolerance` before the cap
};

/// The paper's decomposition: the transition matrix A = A' . diag(w) where
/// A' is the *unweighted* connectivity matrix — representable as a pure
/// bitmask (one bit per edge) — and w[j] = 1/outdegree(j). Each power
/// iteration computes  p <- alpha * A' (w o p) + (1 - alpha)/n  so the
/// 8-bytes-per-edge weight matrix never exists.
///
/// `edges` are (src, dst) pairs; n is the vertex count.
Result<PageRankResult> PageRank(
    Context* ctx, uint64_t n,
    const std::vector<std::pair<uint64_t, uint64_t>>& edges,
    const PageRankOptions& options = {});

}  // namespace spangle

#endif  // SPANGLE_ML_PAGERANK_H_
