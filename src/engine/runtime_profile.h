#ifndef SPANGLE_ENGINE_RUNTIME_PROFILE_H_
#define SPANGLE_ENGINE_RUNTIME_PROFILE_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "engine/metrics.h"

namespace spangle {

class Context;

namespace internal {
class NodeBase;
}  // namespace internal

/// Chunk storage modes mirrored as plain ints so the engine layer can
/// aggregate them without depending on the array layer's ChunkMode enum
/// (0 = dense, 1 = sparse, 2 = super-sparse; see array/chunk.h).
inline constexpr int kProfileChunkModes = 3;

/// Density histogram bucket count: EngineMetrics::DensityBounds() edges
/// plus the open overflow bucket.
inline constexpr int kProfileDensityBuckets = 9;

/// Executed actuals for one lineage node, accumulated by worker threads
/// through cheap relaxed atomics. One NodeProfile per node id lives in
/// the context's RuntimeProfile for the node's lifetime; per-query views
/// are snapshot diffs (see ProfiledRun).
struct NodeProfile {
  std::atomic<uint64_t> invocations{0};  // GetPartition calls
  std::atomic<uint64_t> cache_hits{0};   // served from the block store
  std::atomic<uint64_t> rows_in{0};      // records pulled from parents
  std::atomic<uint64_t> rows_out{0};     // records handed to consumers
  std::atomic<uint64_t> bytes_out{0};    // estimated bytes of computed output
  std::atomic<uint64_t> self_us{0};      // wall time minus child time

  // Paper-specific array stats, attributed to the operator whose task
  // body triggered them (chunk.cc / mask_rdd.cc hooks).
  std::array<std::atomic<uint64_t>, kProfileChunkModes> chunks_built{};
  std::array<std::atomic<uint64_t>, kProfileChunkModes * kProfileChunkModes>
      mode_transitions{};  // [from * 3 + to]
  std::array<std::atomic<uint64_t>, kProfileDensityBuckets> density_hist{};
};

/// Plain-value copy of a NodeProfile, diffable for per-query scoping.
struct NodeProfileSnapshot {
  uint64_t invocations = 0;
  uint64_t cache_hits = 0;
  uint64_t rows_in = 0;
  uint64_t rows_out = 0;
  uint64_t bytes_out = 0;
  uint64_t self_us = 0;
  std::array<uint64_t, kProfileChunkModes> chunks_built{};
  std::array<uint64_t, kProfileChunkModes * kProfileChunkModes>
      mode_transitions{};
  std::array<uint64_t, kProfileDensityBuckets> density_hist{};

  NodeProfileSnapshot operator-(const NodeProfileSnapshot& rhs) const;
  NodeProfileSnapshot& operator+=(const NodeProfileSnapshot& rhs);

  uint64_t TotalChunksBuilt() const;
  uint64_t TotalModeTransitions() const;
  uint64_t TotalDensityObservations() const;
};

/// Per-context profile store: one NodeProfile per lineage node id, plus a
/// bounded ring of counter-track samples (cache pressure, shuffle volume,
/// shuffle concurrency over time) merged into DumpTrace. Context::RunStage
/// binds it to every task thread; threads with no bound stage (the driver)
/// see a null hook pointer and every hook is a single branch.
class RuntimeProfile {
 public:
  explicit RuntimeProfile(EngineMetrics* metrics) : metrics_(metrics) {}

  RuntimeProfile(const RuntimeProfile&) = delete;
  RuntimeProfile& operator=(const RuntimeProfile&) = delete;

  /// The profile slot for `node_id`, created on first use. Lookup of an
  /// existing slot (the per-partition hot path) takes only a shared lock;
  /// first use upgrades to an exclusive lock to insert.
  NodeProfile* GetOrCreate(uint64_t node_id) EXCLUDES(mu_);

  /// Current values for `node_id`; zeros when the node never executed.
  NodeProfileSnapshot Snapshot(uint64_t node_id) const EXCLUDES(mu_);

  /// Drops every node profile and counter sample (metrics are untouched).
  void Clear() EXCLUDES(mu_, samples_mu_);

  // Hook bodies, invoked via the prof:: free functions below from the
  // array layer. `np` may be null (instrumented code running outside an
  // operator scope); the context-level EngineMetrics aggregates are
  // updated either way.
  void RecordChunk(NodeProfile* np, int mode, uint64_t num_cells,
                   uint64_t num_valid);
  void RecordModeTransition(NodeProfile* np, int from_mode, int to_mode);
  void RecordMaskDensity(NodeProfile* np, uint64_t set_bits,
                         uint64_t num_bits);

  /// One point on the trace counter tracks.
  struct CounterSample {
    uint64_t t_us = 0;
    uint64_t bytes_cached = 0;
    uint64_t shuffle_bytes = 0;
    uint64_t concurrent_shuffles = 0;
  };

  /// Samples the gauge-like metrics at `now_us` (called by RunStage at
  /// stage start/end). Retention is a ring of the most recent samples.
  void SampleCounters(uint64_t now_us) EXCLUDES(samples_mu_);
  std::vector<CounterSample> CounterSamples() const EXCLUDES(samples_mu_);

  EngineMetrics* metrics() const { return metrics_; }

 private:
  static constexpr size_t kMaxCounterSamples = 8192;

  EngineMetrics* metrics_;

  // Reader/writer: worker threads resolving an existing node's profile
  // share the lock; inserts (first touch of a node) and Clear take it
  // exclusively. Never held together with samples_mu_ — Clear acquires
  // them strictly in sequence.
  mutable SharedMutex mu_{LockRank::kProfile, "RuntimeProfile::mu_"};
  std::unordered_map<uint64_t, std::unique_ptr<NodeProfile>> nodes_
      GUARDED_BY(mu_);

  mutable Mutex samples_mu_{LockRank::kProfileSamples,
                            "RuntimeProfile::samples_mu_"};
  std::deque<CounterSample> samples_ GUARDED_BY(samples_mu_);
};

/// Thread-local profiling hooks. Context::RunStage binds the context's
/// RuntimeProfile to the worker thread around each task body;
/// Node::GetPartition opens an OperatorScope per partition computation;
/// the array layer reports chunk/mask structure through the free
/// functions. Everything is a no-op on threads with no bound profile, so
/// driver-side code pays one pointer test per hook.
namespace prof {

class OperatorScope;

namespace detail {
inline thread_local RuntimeProfile* tl_profile = nullptr;
inline thread_local OperatorScope* tl_scope = nullptr;

inline uint64_t MonoMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
}  // namespace detail

/// RAII binding of a RuntimeProfile to the current thread (task body).
class ScopedThreadProfile {
 public:
  explicit ScopedThreadProfile(RuntimeProfile* p) : prev_(detail::tl_profile) {
    detail::tl_profile = p;
  }
  ~ScopedThreadProfile() { detail::tl_profile = prev_; }
  ScopedThreadProfile(const ScopedThreadProfile&) = delete;
  ScopedThreadProfile& operator=(const ScopedThreadProfile&) = delete;

 private:
  RuntimeProfile* prev_;
};

inline RuntimeProfile* ThreadProfile() { return detail::tl_profile; }

/// One GetPartition invocation of one lineage node. Scopes nest as
/// operators pull from their parents; each records *self* time (total
/// minus time spent inside child scopes) and charges its output rows to
/// the consuming scope's rows_in — the Spark SQL UI accounting.
class OperatorScope {
 public:
  explicit OperatorScope(uint64_t node_id) {
    profile_ = detail::tl_profile;
    if (profile_ == nullptr) return;
    np_ = profile_->GetOrCreate(node_id);
    parent_ = detail::tl_scope;
    detail::tl_scope = this;
    start_us_ = detail::MonoMicros();
  }

  OperatorScope(const OperatorScope&) = delete;
  OperatorScope& operator=(const OperatorScope&) = delete;

  ~OperatorScope() {
    if (profile_ == nullptr) return;
    const uint64_t total = detail::MonoMicros() - start_us_;
    const uint64_t self = total > child_us_ ? total - child_us_ : 0;
    np_->invocations.fetch_add(1, std::memory_order_relaxed);
    np_->self_us.fetch_add(self, std::memory_order_relaxed);
    np_->rows_out.fetch_add(rows_, std::memory_order_relaxed);
    np_->bytes_out.fetch_add(bytes_, std::memory_order_relaxed);
    if (cached_) np_->cache_hits.fetch_add(1, std::memory_order_relaxed);
    detail::tl_scope = parent_;
    if (parent_ != nullptr) {
      parent_->child_us_ += total;
      parent_->np_->rows_in.fetch_add(rows_, std::memory_order_relaxed);
    }
  }

  /// True when this thread is profiling (guards optional cost like size
  /// estimation at the call site).
  bool active() const { return profile_ != nullptr; }

  /// The partition was computed: record its row count and byte estimate.
  void FinishComputed(uint64_t rows, uint64_t bytes) {
    rows_ = rows;
    bytes_ = bytes;
  }

  /// The partition was served from the block store.
  void FinishCached(uint64_t rows) {
    rows_ = rows;
    cached_ = true;
  }

  NodeProfile* node_profile() const { return np_; }

 private:
  RuntimeProfile* profile_ = nullptr;
  NodeProfile* np_ = nullptr;
  OperatorScope* parent_ = nullptr;
  uint64_t start_us_ = 0;
  uint64_t child_us_ = 0;
  uint64_t rows_ = 0;
  uint64_t bytes_ = 0;
  bool cached_ = false;
};

/// Chunk::FromCells reports every chunk it lays out: the chosen storage
/// mode and the valid-cell density.
inline void RecordChunkBuilt(int mode, uint64_t num_cells,
                             uint64_t num_valid) {
  RuntimeProfile* p = detail::tl_profile;
  if (p == nullptr) return;
  OperatorScope* s = detail::tl_scope;
  p->RecordChunk(s != nullptr ? s->node_profile() : nullptr, mode, num_cells,
                 num_valid);
}

/// Chunk::ConvertTo reports dense ↔ sparse ↔ super-sparse conversions.
inline void RecordModeTransition(int from_mode, int to_mode) {
  RuntimeProfile* p = detail::tl_profile;
  if (p == nullptr) return;
  OperatorScope* s = detail::tl_scope;
  p->RecordModeTransition(s != nullptr ? s->node_profile() : nullptr,
                          from_mode, to_mode);
}

/// MaskRdd combinators report the density of each produced bitmask.
inline void RecordMaskDensity(uint64_t set_bits, uint64_t num_bits) {
  RuntimeProfile* p = detail::tl_profile;
  if (p == nullptr) return;
  OperatorScope* s = detail::tl_scope;
  p->RecordMaskDensity(s != nullptr ? s->node_profile() : nullptr, set_bits,
                       num_bits);
}

}  // namespace prof

/// One lineage node of an executed plan, annotated with actuals.
struct AnalyzedNode {
  uint64_t node_id = 0;
  std::string name;
  int depth = 0;  // distance from the action's root (preorder indent)
  int num_partitions = 0;
  bool is_shuffle = false;
  bool was_materialized = false;  // shuffle output existed before the run
  bool reused = false;            // repeat visit of a diamond lineage
  NodeProfileSnapshot actuals;
};

/// Static plan annotated with executed actuals — the ExplainAnalyze
/// result, machine-readable for tests and renderable for humans.
struct AnalyzedPlan {
  std::string action;
  uint64_t wall_us = 0;
  // What the run changed in the context's metric registry: the
  // EngineMetrics::Snapshot() taken after it minus the one taken before,
  // in registry order. Counters, timers and histograms (bucket counts)
  // only — the difference of two gauge readings is not a count. A newly
  // registered metric appears here without further code.
  std::vector<MetricSample> metrics;
  NodeProfileSnapshot totals;      // sum over non-reused nodes
  std::vector<AnalyzedNode> nodes;  // preorder, roots first
  std::vector<StageStat> stages;    // stages executed during the run

  std::string ToString() const;

  /// The change in registry metric `name` during the run (a histogram's
  /// observation count); 0 for an unknown name or a gauge.
  uint64_t Delta(const std::string& name) const;

  /// The diffed entry for `name` (nullptr for an unknown name or a gauge).
  const MetricSample* Metric(const std::string& name) const;

  /// First node whose name contains `name_substr` (nullptr when absent).
  const AnalyzedNode* Find(const std::string& name_substr) const;
};

/// Measurement session behind ExplainAnalyze: captures the lineage tree,
/// per-node counter snapshots and a metric-registry snapshot before the
/// action executes, then diffs after it — so an ExplainAnalyze on a
/// shared/cached lineage reports only this query's execution.
class ProfiledRun {
 public:
  ProfiledRun(Context* ctx, const std::vector<internal::NodeBase*>& roots,
              std::string action);

  /// Diffs the snapshots and assembles the annotated plan. Call once,
  /// after the action has run.
  AnalyzedPlan Finish();

 private:
  Context* ctx_;
  std::string action_;
  std::vector<AnalyzedNode> nodes_;  // actuals hold the BEFORE snapshots
  uint64_t start_us_ = 0;
  // Stage records with seq > last_stage_seq_ ran during the run (all of
  // them when no stage had run before it).
  bool any_stage_at_start_ = false;
  uint64_t last_stage_seq_ = 0;
  std::vector<MetricSample> metrics_at_start_;
};

}  // namespace spangle

#endif  // SPANGLE_ENGINE_RUNTIME_PROFILE_H_
