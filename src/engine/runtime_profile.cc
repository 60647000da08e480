#include "engine/runtime_profile.h"

#include <cstdio>
#include <functional>
#include <sstream>
#include <unordered_set>

#include "common/bytes.h"
#include "engine/engine.h"

namespace spangle {

namespace {

const char* kModeNames[kProfileChunkModes] = {"dense", "sparse",
                                              "super-sparse"};

size_t DensityBucket(double density) {
  const auto& bounds = EngineMetrics::DensityBounds();
  size_t b = 0;
  while (b < bounds.size() && density > bounds[b]) ++b;
  return b;
}

std::string HumanUs(uint64_t us) {
  char buf[32];
  if (us < 1000) {
    std::snprintf(buf, sizeof(buf), "%lluus",
                  static_cast<unsigned long long>(us));
  } else if (us < 1000 * 1000) {
    std::snprintf(buf, sizeof(buf), "%.2fms", static_cast<double>(us) / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2fs", static_cast<double>(us) / 1e6);
  }
  return buf;
}

void AppendArrayStats(std::ostream& os, const std::string& indent,
                      const NodeProfileSnapshot& s) {
  if (s.TotalChunksBuilt() > 0) {
    os << indent << "chunk modes:";
    for (int m = 0; m < kProfileChunkModes; ++m) {
      if (s.chunks_built[m] > 0) {
        os << " " << kModeNames[m] << "=" << s.chunks_built[m];
      }
    }
    os << "\n";
  }
  if (s.TotalModeTransitions() > 0) {
    os << indent << "mode transitions:";
    for (int f = 0; f < kProfileChunkModes; ++f) {
      for (int t = 0; t < kProfileChunkModes; ++t) {
        const uint64_t n = s.mode_transitions[f * kProfileChunkModes + t];
        if (n > 0) {
          os << " " << kModeNames[f] << "->" << kModeNames[t] << "=" << n;
        }
      }
    }
    os << "\n";
  }
  if (s.TotalDensityObservations() > 0) {
    os << indent << "density hist (<=";
    const auto& bounds = EngineMetrics::DensityBounds();
    for (size_t b = 0; b < bounds.size(); ++b) {
      if (b > 0) os << ",";
      os << bounds[b];
    }
    os << ",inf): [";
    for (size_t b = 0; b < s.density_hist.size(); ++b) {
      if (b > 0) os << ",";
      os << s.density_hist[b];
    }
    os << "]\n";
  }
}

}  // namespace

NodeProfileSnapshot NodeProfileSnapshot::operator-(
    const NodeProfileSnapshot& rhs) const {
  NodeProfileSnapshot out;
  out.invocations = invocations - rhs.invocations;
  out.cache_hits = cache_hits - rhs.cache_hits;
  out.rows_in = rows_in - rhs.rows_in;
  out.rows_out = rows_out - rhs.rows_out;
  out.bytes_out = bytes_out - rhs.bytes_out;
  out.self_us = self_us - rhs.self_us;
  for (size_t i = 0; i < chunks_built.size(); ++i) {
    out.chunks_built[i] = chunks_built[i] - rhs.chunks_built[i];
  }
  for (size_t i = 0; i < mode_transitions.size(); ++i) {
    out.mode_transitions[i] = mode_transitions[i] - rhs.mode_transitions[i];
  }
  for (size_t i = 0; i < density_hist.size(); ++i) {
    out.density_hist[i] = density_hist[i] - rhs.density_hist[i];
  }
  return out;
}

NodeProfileSnapshot& NodeProfileSnapshot::operator+=(
    const NodeProfileSnapshot& rhs) {
  invocations += rhs.invocations;
  cache_hits += rhs.cache_hits;
  rows_in += rhs.rows_in;
  rows_out += rhs.rows_out;
  bytes_out += rhs.bytes_out;
  self_us += rhs.self_us;
  for (size_t i = 0; i < chunks_built.size(); ++i) {
    chunks_built[i] += rhs.chunks_built[i];
  }
  for (size_t i = 0; i < mode_transitions.size(); ++i) {
    mode_transitions[i] += rhs.mode_transitions[i];
  }
  for (size_t i = 0; i < density_hist.size(); ++i) {
    density_hist[i] += rhs.density_hist[i];
  }
  return *this;
}

uint64_t NodeProfileSnapshot::TotalChunksBuilt() const {
  uint64_t n = 0;
  for (uint64_t c : chunks_built) n += c;
  return n;
}

uint64_t NodeProfileSnapshot::TotalModeTransitions() const {
  uint64_t n = 0;
  for (uint64_t c : mode_transitions) n += c;
  return n;
}

uint64_t NodeProfileSnapshot::TotalDensityObservations() const {
  uint64_t n = 0;
  for (uint64_t c : density_hist) n += c;
  return n;
}

NodeProfile* RuntimeProfile::GetOrCreate(uint64_t node_id) {
  {
    // Hot path: per-partition profile lookups of already-seen nodes only
    // contend on a reader lock. The pointee outlives the lock (slots are
    // only removed by Clear, which callers must not race with live tasks).
    ReaderMutexLock lock(&mu_);
    auto it = nodes_.find(node_id);
    if (it != nodes_.end()) return it->second.get();
  }
  WriterMutexLock lock(&mu_);
  auto it = nodes_.find(node_id);
  if (it == nodes_.end()) {
    it = nodes_.emplace(node_id, std::make_unique<NodeProfile>()).first;
  }
  return it->second.get();
}

NodeProfileSnapshot RuntimeProfile::Snapshot(uint64_t node_id) const {
  NodeProfileSnapshot out;
  const NodeProfile* np = nullptr;
  {
    ReaderMutexLock lock(&mu_);
    auto it = nodes_.find(node_id);
    if (it == nodes_.end()) return out;
    np = it->second.get();
  }
  out.invocations = np->invocations.load(std::memory_order_relaxed);
  out.cache_hits = np->cache_hits.load(std::memory_order_relaxed);
  out.rows_in = np->rows_in.load(std::memory_order_relaxed);
  out.rows_out = np->rows_out.load(std::memory_order_relaxed);
  out.bytes_out = np->bytes_out.load(std::memory_order_relaxed);
  out.self_us = np->self_us.load(std::memory_order_relaxed);
  for (size_t i = 0; i < out.chunks_built.size(); ++i) {
    out.chunks_built[i] = np->chunks_built[i].load(std::memory_order_relaxed);
  }
  for (size_t i = 0; i < out.mode_transitions.size(); ++i) {
    out.mode_transitions[i] =
        np->mode_transitions[i].load(std::memory_order_relaxed);
  }
  for (size_t i = 0; i < out.density_hist.size(); ++i) {
    out.density_hist[i] = np->density_hist[i].load(std::memory_order_relaxed);
  }
  return out;
}

void RuntimeProfile::Clear() {
  {
    WriterMutexLock lock(&mu_);
    nodes_.clear();
  }
  MutexLock lock(&samples_mu_);
  samples_.clear();
}

void RuntimeProfile::RecordChunk(NodeProfile* np, int mode,
                                 uint64_t num_cells, uint64_t num_valid) {
  const double density =
      num_cells > 0
          ? static_cast<double>(num_valid) / static_cast<double>(num_cells)
          : 0.0;
  metrics_->chunk_density.Observe(density);
  if (np == nullptr || mode < 0 || mode >= kProfileChunkModes) return;
  np->chunks_built[mode].fetch_add(1, std::memory_order_relaxed);
  np->density_hist[DensityBucket(density)].fetch_add(
      1, std::memory_order_relaxed);
}

void RuntimeProfile::RecordModeTransition(NodeProfile* np, int from_mode,
                                          int to_mode) {
  metrics_->mode_transitions.fetch_add(1, std::memory_order_relaxed);
  if (np == nullptr || from_mode < 0 || from_mode >= kProfileChunkModes ||
      to_mode < 0 || to_mode >= kProfileChunkModes) {
    return;
  }
  np->mode_transitions[from_mode * kProfileChunkModes + to_mode].fetch_add(
      1, std::memory_order_relaxed);
}

void RuntimeProfile::RecordMaskDensity(NodeProfile* np, uint64_t set_bits,
                                       uint64_t num_bits) {
  const double density =
      num_bits > 0
          ? static_cast<double>(set_bits) / static_cast<double>(num_bits)
          : 0.0;
  metrics_->mask_density.Observe(density);
  if (np == nullptr) return;
  np->density_hist[DensityBucket(density)].fetch_add(
      1, std::memory_order_relaxed);
}

void RuntimeProfile::SampleCounters(uint64_t now_us) {
  CounterSample s;
  s.t_us = now_us;
  s.bytes_cached = metrics_->bytes_cached.load(std::memory_order_relaxed);
  s.shuffle_bytes = metrics_->shuffle_bytes.load(std::memory_order_relaxed);
  s.concurrent_shuffles =
      metrics_->concurrent_shuffles.load(std::memory_order_relaxed);
  MutexLock lock(&samples_mu_);
  while (samples_.size() >= kMaxCounterSamples) samples_.pop_front();
  samples_.push_back(s);
}

std::vector<RuntimeProfile::CounterSample> RuntimeProfile::CounterSamples()
    const {
  MutexLock lock(&samples_mu_);
  return std::vector<CounterSample>(samples_.begin(), samples_.end());
}

std::string AnalyzedPlan::ToString() const {
  std::ostringstream os;
  os << "== Analyzed plan";
  if (!action.empty()) os << ": " << action;
  os << " == wall=" << HumanUs(wall_us) << " stages=" << Delta("stages_run")
     << "\n";
  for (const AnalyzedNode& n : nodes) {
    const std::string base(static_cast<size_t>(n.depth) * 3, ' ');
    os << base;
    if (n.depth > 0) os << "+- ";
    os << n.name << "#" << n.node_id << " [" << n.num_partitions << " parts";
    if (n.is_shuffle) {
      os << (n.was_materialized ? ", shuffle, skipped" : ", shuffle");
    }
    os << "]";
    if (n.reused) {
      os << " (reused above)\n";
      continue;
    }
    const NodeProfileSnapshot& a = n.actuals;
    os << " inv=" << a.invocations;
    if (a.cache_hits > 0) os << " cache_hits=" << a.cache_hits;
    os << " rows_in=" << a.rows_in << " rows_out=" << a.rows_out
       << " bytes_out=" << HumanBytes(a.bytes_out)
       << " self=" << HumanUs(a.self_us) << "\n";
    AppendArrayStats(os, base + (n.depth > 0 ? "   | " : "| "), a);
  }
  os << "totals: rows_out=" << totals.rows_out
     << " bytes_out=" << HumanBytes(totals.bytes_out)
     << " self=" << HumanUs(totals.self_us)
     << " chunks_built=" << totals.TotalChunksBuilt()
     << " mode_transitions=" << totals.TotalModeTransitions() << "\n";
  AppendArrayStats(os, "  ", totals);
  const uint64_t codec_raw = Delta("codec_bytes_raw");
  const uint64_t codec_encoded = Delta("codec_bytes_encoded");
  const uint64_t dedup_hits = Delta("shuffle_block_dedup_hits");
  if (codec_raw > 0 || dedup_hits > 0) {
    os << "codec: raw=" << HumanBytes(codec_raw)
       << " encoded=" << HumanBytes(codec_encoded) << " ("
       << (codec_raw > 0 ? static_cast<double>(codec_encoded) /
                               static_cast<double>(codec_raw)
                         : 0.0)
       << "x) encode=" << HumanUs(Delta("codec_encode_time_us"))
       << " dedup_hits=" << dedup_hits << "\n";
  }
  const uint64_t cache_hits = Delta("result_cache_hits");
  const uint64_t cache_misses = Delta("result_cache_misses");
  const uint64_t adm_queued = Delta("admission_queued");
  const uint64_t adm_rejected = Delta("admission_rejected");
  const uint64_t jobs_served = Delta("jobs_served");
  if (cache_hits > 0 || cache_misses > 0 || adm_queued > 0 ||
      adm_rejected > 0 || jobs_served > 0) {
    os << "serving: result_cache_hits=" << cache_hits
       << " result_cache_misses=" << cache_misses
       << " admission_queued=" << adm_queued
       << " admission_rejected=" << adm_rejected;
    if (jobs_served > 0) {
      // Percentiles over only this run's jobs: interpolated on the
      // diffed bucket counts of the serving latency histograms.
      const auto p = [this](const char* hist, double q) {
        const MetricSample* m = Metric(hist);
        const double us = m == nullptr
                              ? 0.0
                              : Histogram::PercentileFromCounts(
                                    EngineMetrics::LatencyBoundsUs(),
                                    m->buckets, q);
        return HumanUs(static_cast<uint64_t>(us));
      };
      os << " jobs_served=" << jobs_served;
      for (const auto& [label, hist] :
           {std::pair{"wait", "job_queue_wait_us"},
            std::pair{"run", "job_run_us"}, std::pair{"e2e", "job_e2e_us"}}) {
        os << " " << label << "_p50/p95/p99=" << p(hist, 0.50) << "/"
           << p(hist, 0.95) << "/" << p(hist, 0.99);
      }
    }
    os << "\n";
  }
  const uint64_t rpc_roundtrips = Delta("rpc_roundtrips");
  const uint64_t restarts = Delta("executor_restarts");
  const uint64_t hb_misses = Delta("heartbeat_misses");
  if (rpc_roundtrips > 0 || restarts > 0 || hb_misses > 0) {
    os << "fleet: rpc_roundtrips=" << rpc_roundtrips
       << " sent=" << HumanBytes(Delta("rpc_bytes_sent"))
       << " received=" << HumanBytes(Delta("rpc_bytes_received"))
       << " remote_fetches=" << Delta("remote_shuffle_fetches")
       << " restarts=" << restarts << " heartbeat_misses=" << hb_misses
       << "\n";
  }
  if (!stages.empty()) {
    os << "stages:\n";
    for (const StageStat& s : stages) os << "  " << s.ToString() << "\n";
  }
  return os.str();
}

const MetricSample* AnalyzedPlan::Metric(const std::string& name) const {
  for (const MetricSample& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

uint64_t AnalyzedPlan::Delta(const std::string& name) const {
  const MetricSample* m = Metric(name);
  return m == nullptr ? 0 : m->value;
}

const AnalyzedNode* AnalyzedPlan::Find(const std::string& name_substr) const {
  for (const AnalyzedNode& n : nodes) {
    if (n.name.find(name_substr) != std::string::npos) return &n;
  }
  return nullptr;
}

ProfiledRun::ProfiledRun(Context* ctx,
                         const std::vector<internal::NodeBase*>& roots,
                         std::string action)
    : ctx_(ctx), action_(std::move(action)) {
  std::unordered_set<uint64_t> visited;
  std::function<void(internal::NodeBase*, int)> walk =
      [&](internal::NodeBase* n, int depth) {
        if (n == nullptr) return;
        AnalyzedNode an;
        an.node_id = n->id();
        an.name = n->name();
        an.depth = depth;
        an.num_partitions = n->num_partitions();
        an.is_shuffle = n->IsShuffle();
        an.was_materialized = an.is_shuffle && n->IsMaterialized();
        an.reused = visited.count(an.node_id) > 0;
        an.actuals = ctx_->profile().Snapshot(an.node_id);
        nodes_.push_back(std::move(an));
        if (nodes_.back().reused) return;
        visited.insert(n->id());
        for (internal::NodeBase* p : n->Parents()) walk(p, depth + 1);
      };
  for (internal::NodeBase* r : roots) walk(r, 0);
  const auto stats = ctx_->metrics().StageStats();
  if (!stats.empty()) {
    any_stage_at_start_ = true;
    last_stage_seq_ = stats.back().seq;
  }
  metrics_at_start_ = ctx_->metrics().Snapshot();
  start_us_ = ctx_->NowMicros();
}

AnalyzedPlan ProfiledRun::Finish() {
  AnalyzedPlan plan;
  plan.action = action_;
  plan.wall_us = ctx_->NowMicros() - start_us_;
  // Both snapshots walk the same registry, so entries pair up by index.
  std::vector<MetricSample> now = ctx_->metrics().Snapshot();
  for (size_t i = 0; i < now.size(); ++i) {
    MetricSample& m = now[i];
    if (m.kind == MetricKind::kGauge) continue;
    const MetricSample& start = metrics_at_start_[i];
    m.value -= start.value;
    for (size_t b = 0; b < m.buckets.size(); ++b) {
      m.buckets[b] -= start.buckets[b];
    }
    plan.metrics.push_back(std::move(m));
  }
  for (AnalyzedNode& an : nodes_) {
    const NodeProfileSnapshot after = ctx_->profile().Snapshot(an.node_id);
    an.actuals = after - an.actuals;
    if (!an.reused) plan.totals += an.actuals;
  }
  plan.nodes = std::move(nodes_);
  for (const StageStat& s : ctx_->metrics().StageStats()) {
    if (!any_stage_at_start_ || s.seq > last_stage_seq_) {
      plan.stages.push_back(s);
    }
  }
  return plan;
}

}  // namespace spangle
