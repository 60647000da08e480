
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "bench.h"
#include "bitmask/popcount.h"
#include "codec/columnar.h"
#include "common/random.h"

namespace perfbench {

double NowUs() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

std::vector<double> Sorted(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v;
}

double Quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

double Median(std::vector<double> v) { return Quantile(Sorted(std::move(v)), 0.5); }

// ---------------------------------------------------------------------

namespace {
thread_local uint64_t t_parent_span = 0;

int ThreadIndex() {
  static std::atomic<int> next{0};
  thread_local int index = next.fetch_add(1);
  return index;
}

void AppendJsonString(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    if (c == '"' || c == '\\') out->push_back('\\');
    out->push_back(c);
  }
  out->push_back('"');
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}
}  // namespace

void SpanRecorder::Record(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (i > 0) out += ",\n";
      out += "{\"ph\":\"X\",\"pid\":0,\"cat\":\"perfbench\",\"name\":";
      AppendJsonString(&out, s.name);
      out += ",\"tid\":";
      out += std::to_string(s.tid);
      out += ",\"ts\":";
      out += Num(s.start_us);
      out += ",\"dur\":";
      out += Num(s.end_us - s.start_us);
      out += ",\"args\":{\"span\":";
      out += std::to_string(s.id);
      out += ",\"parent\":";
      out += std::to_string(s.parent);
      for (const auto& [k, v] : s.args) {
        out += ",";
        AppendJsonString(&out, k);
        out += ':';
        out += Num(v);
      }
      out += "}}";
    }
  }
  out += "]}\n";
  std::ofstream f(path, std::ios::binary);
  f << out;
  return static_cast<bool>(f);
}

ScopedSpan::ScopedSpan(SpanRecorder* rec, std::string name)
    : rec_(rec), recording_(rec != nullptr && rec->enabled()),
      prev_parent_(t_parent_span) {
  span_.name = std::move(name);
  if (recording_) {
    span_.id = rec_->NextId();
    span_.parent = prev_parent_;
    span_.tid = ThreadIndex();
    t_parent_span = span_.id;
  }
  span_.start_us = NowUs();
}

ScopedSpan::~ScopedSpan() { End(); }

void ScopedSpan::Arg(std::string key, double value) {
  if (recording_) span_.args.emplace_back(std::move(key), value);
}

double ScopedSpan::End() {
  if (!ended_) {
    ended_ = true;
    span_.end_us = NowUs();
    if (recording_) {
      t_parent_span = prev_parent_;
      rec_->Record(span_);
    }
  }
  return (span_.end_us - span_.start_us) / 1e6;
}

// ---------------------------------------------------------------------

Counters Snapshot(const spangle::EngineMetrics& m) {
  auto ld = [](const std::atomic<uint64_t>& a) {
    return a.load(std::memory_order_relaxed);
  };
  Counters c;
  c.jobs = ld(m.jobs_run);
  c.stages = ld(m.stages_run);
  c.tasks = ld(m.tasks_run);
  c.task_time_us = ld(m.task_time_us);
  c.shuffle_bytes = ld(m.shuffle_bytes);
  c.task_retries = ld(m.task_retries);
  c.stage_reruns = ld(m.stage_reruns);
  c.cache_hits = ld(m.cache_hits);
  c.cache_misses = ld(m.cache_misses);
  c.evictions = ld(m.evictions);
  c.spilled_bytes = ld(m.spilled_bytes);
  c.disk_reads = ld(m.disk_reads);
  c.codec_raw = ld(m.codec_bytes_raw);
  c.codec_encoded = ld(m.codec_bytes_encoded);
  c.codec_encode_us = ld(m.codec_encode_time_us);
  c.rpc_bytes = ld(m.rpc_bytes_sent) + ld(m.rpc_bytes_received);
  c.rpc_roundtrips = ld(m.rpc_roundtrips);
  c.remote_fetch_us = ld(m.remote_fetch_time_us);
  c.executor_restarts = ld(m.executor_restarts);
  c.admission_queued = ld(m.admission_queued);
  c.mode_transitions = ld(m.mode_transitions);
  return c;
}

Counters operator-(const Counters& a, const Counters& b) {
  Counters d;
  d.jobs = a.jobs - b.jobs;
  d.stages = a.stages - b.stages;
  d.tasks = a.tasks - b.tasks;
  d.task_time_us = a.task_time_us - b.task_time_us;
  d.shuffle_bytes = a.shuffle_bytes - b.shuffle_bytes;
  d.task_retries = a.task_retries - b.task_retries;
  d.stage_reruns = a.stage_reruns - b.stage_reruns;
  d.cache_hits = a.cache_hits - b.cache_hits;
  d.cache_misses = a.cache_misses - b.cache_misses;
  d.evictions = a.evictions - b.evictions;
  d.spilled_bytes = a.spilled_bytes - b.spilled_bytes;
  d.disk_reads = a.disk_reads - b.disk_reads;
  d.codec_raw = a.codec_raw - b.codec_raw;
  d.codec_encoded = a.codec_encoded - b.codec_encoded;
  d.codec_encode_us = a.codec_encode_us - b.codec_encode_us;
  d.rpc_bytes = a.rpc_bytes - b.rpc_bytes;
  d.rpc_roundtrips = a.rpc_roundtrips - b.rpc_roundtrips;
  d.remote_fetch_us = a.remote_fetch_us - b.remote_fetch_us;
  d.executor_restarts = a.executor_restarts - b.executor_restarts;
  d.admission_queued = a.admission_queued - b.admission_queued;
  d.mode_transitions = a.mode_transitions - b.mode_transitions;
  return d;
}

StageCollector::StageCollector(spangle::Context* ctx) : ctx_(ctx) {
  for (const auto& s : ctx_->metrics().StageStats()) seen_.insert(s.seq);
  thread_ = std::thread([this] {
    while (!stop_.load()) {
      Drain();
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
    }
  });
}

StageCollector::~StageCollector() { Stop(); }

void StageCollector::Drain() {
  auto all = ctx_->metrics().StageStats();
  std::lock_guard<std::mutex> lock(mu_);
  // Stages are recorded when they finish, not in sequence order.
  for (auto& s : all) {
    if (seen_.insert(s.seq).second) {
      s.tasks.clear();  // per-task detail is not needed here
      stages_.push_back(std::move(s));
    }
  }
}

std::vector<spangle::StageStat> StageCollector::Stop() {
  if (thread_.joinable()) {
    stop_.store(true);
    thread_.join();
    Drain();
  }
  std::lock_guard<std::mutex> lock(mu_);
  return stages_;
}

// ---------------------------------------------------------------------

bool InTracedSegment(const Args& args, double loop_start_us, double now_us) {
  if (!args.trace) return false;
  return static_cast<int64_t>((now_us - loop_start_us) / 1e6) % 2 == 1;
}

void RunClosedLoop(const Args& args, SpanRecorder* spans,
                   spangle::Context* ctx,
                   const std::vector<std::string>& kind_names,
                   const std::function<int(size_t)>& kind_of,
                   const std::function<bool(size_t, OpRecord&)>& op,
                   const std::function<void()>& at_min_ops,
                   std::vector<OpRecord>* ops) {
  const double start = NowUs();
  const double deadline = start + args.seconds * 1e6;
  for (size_t i = 0; NowUs() < deadline || i < kMinOps; ++i) {
    OpRecord rec;
    rec.kind = kind_of(i);
    rec.traced = InTracedSegment(args, start, NowUs());
    spans->set_enabled(rec.traced);
    {
      ScopedSpan span(spans, "op/" + kind_names[rec.kind]);
      const Counters before =
          rec.traced ? Snapshot(ctx->metrics()) : Counters{};
      rec.ctx_start_us = ctx->NowMicros();
      rec.start_us = NowUs();
      try {
        rec.ok = op(i, rec);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "op %zu threw: %s\n", i, e.what());
        rec.ok = false;
      }
      rec.end_us = NowUs();
      rec.ctx_end_us = ctx->NowMicros();
      if (rec.traced) {
        const Counters d = Snapshot(ctx->metrics()) - before;
        span.Arg("jobs", static_cast<double>(d.jobs));
        span.Arg("stages", static_cast<double>(d.stages));
        span.Arg("tasks", static_cast<double>(d.tasks));
        span.Arg("shuffle_bytes", static_cast<double>(d.shuffle_bytes));
        span.Arg("spilled_bytes", static_cast<double>(d.spilled_bytes));
        span.Arg("disk_reads", static_cast<double>(d.disk_reads));
        span.Arg("rpc_roundtrips", static_cast<double>(d.rpc_roundtrips));
      }
    }
    ops->push_back(rec);
    if (ops->size() == kMinOps) at_min_ops();
  }
  spans->set_enabled(false);
}

// ---------------------------------------------------------------------

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

void Report::Print(const Args& args) const {
  std::string prov = "{\"provenance\":{";
  prov += "\"workload\":\"" + args.workload + "\"";
  prov += ",\"seed\":" + std::to_string(args.seed);
  prov += ",\"seconds\":" + Num(args.seconds);
  prov += ",\"trace\":" + std::string(args.trace ? "1" : "0");
  prov += ",\"build_type\":\"" PERFBENCH_BUILD_TYPE "\"";
  prov += ",\"compiler\":\"" PERFBENCH_COMPILER "\"";
  prov += ",\"lock_rank_checks\":" + std::to_string(SPANGLE_LOCK_RANK_CHECKS);
  prov += ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency());
  prov += ",\"daemons\":" + std::to_string(daemons);
  for (const auto& [k, v] : info_) prov += ",\"" + k + "\":" + Num(v);
  prov += "}}";
  std::printf("%s\n", prov.c_str());

  std::string out = "{\"correct\":";
  out += correct ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(attempted);
  out += ",\"failed\":" + std::to_string(failed);
  out += ",\"metrics\":{";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"" + metrics_[i].first + "\":{\"value\":" +
           Num(metrics_[i].second.first) + ",\"unit\":\"" +
           metrics_[i].second.second + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

void WriteTrace(const Args& args, const SpanRecorder& spans) {
  if (!args.trace) return;
  const std::string path = args.trace_dir + "/perfbench-" + args.workload +
                           "-" + std::to_string(args.seed) + ".json";
  if (!spans.WriteChromeTrace(path)) {
    std::fprintf(stderr, "cannot write trace %s\n", path.c_str());
  }
}

namespace {

// Length of the union of [s, e) intervals clipped to [lo, hi).
double UnionLength(std::vector<std::pair<double, double>> iv, double lo,
                   double hi) {
  std::sort(iv.begin(), iv.end());
  double total = 0, cur_s = 0, cur_e = -1;
  for (auto [s, e] : iv) {
    s = std::max(s, lo);
    e = std::min(e, hi);
    if (e <= s) continue;
    if (s > cur_e) {
      if (cur_e > cur_s) total += cur_e - cur_s;
      cur_s = s;
      cur_e = e;
    } else {
      cur_e = std::max(cur_e, e);
    }
  }
  if (cur_e > cur_s) total += cur_e - cur_s;
  return total;
}

}  // namespace

void DumpEngineTrace(const Args& args, spangle::Context* ctx) {
  const std::string path = args.trace_dir + "/engine-" + args.workload +
                           "-" + std::to_string(args.seed) + ".json";
  if (!ctx->DumpTrace(path)) {
    std::fprintf(stderr, "cannot write trace %s\n", path.c_str());
  }
}

void AddEndToEnd(Report* report, const std::vector<double>& setup_s,
                 const std::vector<OpRecord>& ops, double peak_rss_mb) {
  // The window is cut into consecutive blocks of at least one second and
  // 40 ops, and each statistic is taken per block. Interference from
  // other tenants of the machine comes in bursts of seconds and only ever
  // adds time, so across blocks the quartile on the fast side is
  // reported: the lower quartile of the block latencies and the upper
  // quartile of the block throughputs. A burst that covers less than
  // three quarters of the window does not move them.
  std::vector<OpRecord> by_end = ops;
  std::sort(by_end.begin(), by_end.end(),
            [](const OpRecord& a, const OpRecord& b) { return a.end_us < b.end_us; });
  std::vector<double> rate, p50, p90;
  std::vector<double> ms;
  std::vector<std::pair<double, double>> busy;
  auto close_block = [&] {
    const double busy_us = UnionLength(busy, -1e300, 1e300);
    const auto sorted = Sorted(ms);
    rate.push_back(busy_us > 0 ? static_cast<double>(ms.size()) / busy_us * 1e6 : 0);
    p50.push_back(Quantile(sorted, 0.5));
    p90.push_back(Quantile(sorted, 0.9));
    ms.clear();
    busy.clear();
  };
  double block_start = 0;
  for (const auto& op : by_end) {
    if (ms.empty()) block_start = op.start_us;
    ms.push_back(op.ms());
    busy.emplace_back(op.start_us, op.end_us);
    if (ms.size() >= 40 && op.end_us - block_start >= 1e6) close_block();
  }
  // A short trailing block joins the statistics only when it is the
  // only one.
  if (!ms.empty() && rate.empty()) close_block();
  report->Info("blocks", static_cast<double>(rate.size()));
  report->Add("setup_s", Median(setup_s), "s");
  report->Add("ops_per_s", Quantile(Sorted(rate), 0.75), "1/s");
  report->Add("op_ms.p50", Quantile(Sorted(p50), 0.25), "ms");
  report->Add("op_ms.p90", Quantile(Sorted(p90), 0.25), "ms");
  report->Add("success_rate",
              report->attempted == 0
                  ? 0
                  : 1.0 - static_cast<double>(report->failed) /
                              static_cast<double>(report->attempted),
              "fraction");
  report->Add("peak_rss_mb", peak_rss_mb, "MB");
}

void AddEngineLayers(Report* report, const LayerInputs& in) {
  const auto& ops = *in.ops;
  const Counters& w = in.window;
  const double n = std::max<double>(1.0, static_cast<double>(ops.size()));
  auto per_op = [n](uint64_t v) { return static_cast<double>(v) / n; };

  report->Add("array.mode_transitions_per_op", per_op(w.mode_transitions),
              "count");
  report->Add("engine.jobs_per_op", per_op(w.jobs), "count");
  report->Add("engine.stages_per_op", per_op(w.stages), "count");
  report->Add("engine.tasks_per_op", per_op(w.tasks), "count");

  // Stage wall time per op, and the driver-side remainder: op wall time
  // not covered by any of the op's stages.
  double stage_us = 0;
  std::vector<double> skews;
  for (const auto& s : in.stages) {
    stage_us += static_cast<double>(s.wall_us);
    if (s.num_tasks > 1) skews.push_back(s.skew_ratio);
  }
  double driver_us = 0;
  if (in.match_stages_by_job) {
    std::unordered_map<uint64_t, std::vector<std::pair<double, double>>> by_job;
    for (const auto& s : in.stages) {
      by_job[s.job_id].emplace_back(static_cast<double>(s.start_us),
                                    static_cast<double>(s.start_us + s.wall_us));
    }
    for (const auto& op : ops) {
      double covered = 0;
      if (!op.cache_hit) {
        auto it = by_job.find(op.engine_job);
        if (it != by_job.end()) {
          covered = UnionLength(it->second, -1e300, 1e300);
        }
      }
      driver_us += std::max(0.0, op.run_us - covered);
    }
  } else {
    std::vector<std::pair<double, double>> iv;
    iv.reserve(in.stages.size());
    for (const auto& s : in.stages) {
      iv.emplace_back(static_cast<double>(s.start_us),
                      static_cast<double>(s.start_us + s.wall_us));
    }
    std::sort(iv.begin(), iv.end());
    for (const auto& op : ops) {
      const double lo = static_cast<double>(op.ctx_start_us);
      const double hi = static_cast<double>(op.ctx_end_us);
      // Stages of one op start inside its window; the sort lets the scan
      // stop early.
      std::vector<std::pair<double, double>> mine;
      auto first = std::lower_bound(iv.begin(), iv.end(),
                                    std::make_pair(lo, -1e300));
      for (auto it = first; it != iv.end() && it->first < hi; ++it) {
        mine.push_back(*it);
      }
      driver_us += std::max(0.0, (op.end_us - op.start_us) -
                                     UnionLength(mine, lo, hi));
    }
  }
  report->Add("engine.stage_ms_per_op", stage_us / 1000.0 / n, "ms");
  report->Add("engine.task_ms_per_op", per_op(w.task_time_us) / 1000.0, "ms");
  report->Add("engine.driver_ms_per_op", driver_us / 1000.0 / n, "ms");
  report->Add("engine.task_skew.p50", Median(skews), "ratio");
  report->Add("engine.shuffle_mb_per_op", per_op(w.shuffle_bytes) / 1e6, "MB");
  report->Add("engine.task_retries", static_cast<double>(w.task_retries),
              "count");
  report->Add("engine.stage_reruns", static_cast<double>(w.stage_reruns),
              "count");

  const double lookups = static_cast<double>(w.cache_hits + w.cache_misses);
  report->Add("block_manager.cache_hit_frac",
              lookups > 0 ? static_cast<double>(w.cache_hits) / lookups : 0,
              "fraction");
  report->Add("block_manager.spill_mb_per_op", per_op(w.spilled_bytes) / 1e6,
              "MB");
  report->Add("block_manager.disk_reads_per_op", per_op(w.disk_reads),
              "count");
  report->Add("block_manager.evictions_per_op", per_op(w.evictions), "count");
  report->Add("block_manager.high_water_mb", in.high_water_bytes / 1e6, "MB");

  report->Add("codec.encode_ms_per_op", per_op(w.codec_encode_us) / 1000.0,
              "ms");
  report->Add("codec.ratio",
              w.codec_raw > 0 ? static_cast<double>(w.codec_encoded) /
                                    static_cast<double>(w.codec_raw)
                              : 0,
              "ratio");

  report->Add("net.rpc_roundtrips_per_op", per_op(w.rpc_roundtrips), "count");
  report->Add("net.rpc_mb_per_op", per_op(w.rpc_bytes) / 1e6, "MB");
  report->Add("net.fetch_wait_ms_per_op", per_op(w.remote_fetch_us) / 1000.0,
              "ms");
  report->Add("net.executor_restarts",
              static_cast<double>(w.executor_restarts), "count");
}

void AddTraceOverhead(Report* report, const std::vector<OpRecord>& ops) {
  std::vector<double> traced, plain;
  for (const auto& op : ops) (op.traced ? traced : plain).push_back(op.ms());
  const double t = Median(traced), p = Median(plain);
  report->Add("bench.trace_overhead_pct", p > 0 ? (t - p) / p * 100.0 : 0,
              "%");
}

void AddDecodeProbe(Report* report, uint64_t seed) {
  using Record = std::pair<int64_t, double>;
  constexpr size_t kRecords = 200000;
  const std::pair<double, const char*> densities[] = {
      {0.01, "codec.decode_mbps.d01"},
      {0.10, "codec.decode_mbps.d10"},
      {0.90, "codec.decode_mbps.d90"}};
  for (const auto& [density, name] : densities) {
    // Mostly sorted keys (as a shuffle produces them), values nonzero
    // with the given probability.
    spangle::Rng rng(seed * 1000 + static_cast<uint64_t>(density * 100));
    std::vector<Record> records;
    records.reserve(kRecords);
    int64_t key = 0;
    for (size_t i = 0; i < kRecords; ++i) {
      key += static_cast<int64_t>(rng.NextBounded(5));
      records.emplace_back(
          key, rng.NextBool(density) ? rng.NextDouble(-1e6, 1e6) : 0.0);
    }
    const auto frame = spangle::codec::EncodePartitionFrame(records);
    const double raw_mb =
        static_cast<double>(kRecords * sizeof(Record)) / 1e6;
    std::vector<double> mbps;
    for (int rep = 0; rep < 9; ++rep) {
      const double t0 = NowUs();
      auto decoded = spangle::codec::DecodePartitionFrame<Record>(
          frame.bytes.data(), frame.bytes.size());
      const double secs = (NowUs() - t0) / 1e6;
      if (!decoded.ok() || decoded->size() != kRecords ||
          (*decoded)[kRecords / 2] != records[kRecords / 2]) {
        std::fprintf(stderr, "decode probe: frame did not round-trip\n");
        report->correct = false;
      }
      mbps.push_back(secs > 0 ? raw_mb / secs : 0);
    }
    report->Add(name, Median(mbps), "MB/s");
  }
}

void AddPopcountProbe(Report* report, const std::vector<uint64_t>& words) {
  if (words.empty()) {
    report->Add("bitmask.popcount_gbps", 0, "GB/s");
    return;
  }
  const double bytes = static_cast<double>(words.size() * sizeof(uint64_t));
  std::vector<double> gbps;
  uint64_t sink = 0;
  for (int rep = 0; rep < 9; ++rep) {
    int passes = 0;
    const double t0 = NowUs();
    double t1 = t0;
    while (t1 - t0 < 20000) {  // at least 20 ms per sample
      sink += spangle::CountWords(words.data(), words.size());
      ++passes;
      t1 = NowUs();
    }
    gbps.push_back(bytes * passes / ((t1 - t0) / 1e6) / 1e9);
  }
  if (sink == 0) std::fprintf(stderr, "popcount probe: masks are empty\n");
  report->Add("bitmask.popcount_gbps", Median(gbps), "GB/s");
}

double PeakRssMb(const std::vector<pid_t>& daemons) {
  auto vm_hwm_kb = [](const std::string& status_path) {
    std::ifstream f(status_path);
    std::string line;
    while (std::getline(f, line)) {
      if (line.rfind("VmHWM:", 0) == 0) {
        std::istringstream in(line.substr(6));
        double kb = 0;
        in >> kb;
        return kb;
      }
    }
    return 0.0;
  };
  double kb = vm_hwm_kb("/proc/self/status");
  for (pid_t pid : daemons) {
    kb += vm_hwm_kb("/proc/" + std::to_string(pid) + "/status");
  }
  return kb * 1024.0 / 1e6;
}

bool ProcessAlive(pid_t pid) {
  if (pid <= 0) return false;
  std::ifstream f("/proc/" + std::to_string(pid) + "/stat");
  std::string stat;
  if (!std::getline(f, stat)) return false;
  // State is the first field after the parenthesised command name.
  const size_t paren = stat.rfind(')');
  return paren == std::string::npos || paren + 2 >= stat.size() ||
         stat[paren + 2] != 'Z';
}

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  h ^= h >> 31;
  h *= 0xBF58476D1CE4E5B9ULL;
  return h ^ (h >> 29);
}

bool SameDouble(double got, double want, bool exact) {
  if (exact) return std::memcmp(&got, &want, sizeof(double)) == 0;
  return std::abs(got - want) <= 1e-9 * std::max(1.0, std::abs(want));
}

}  // namespace perfbench
