// Shared machinery of the benchmark binary: arguments, the span recorder
// behind the traced run, engine-counter snapshots, the closed-loop op
// driver and the result report. See README.md for what each workload
// measures and why.
#ifndef SPANGLE_PERFBENCH_BENCH_H_
#define SPANGLE_PERFBENCH_BENCH_H_

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "engine/engine.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Self-test hook: corrupt the answer of this op (0-based, in check
  /// order) before it is checked; -1 = off.
  int64_t corrupt_op = -1;
  /// Benchmark-owned scratch directory (spill files, daemon temp dirs,
  /// trace output); created and removed by run.py.
  std::string work_dir = ".";
  /// Where the traced run writes its Chrome traces.
  std::string trace_dir = ".";
  std::string executord;
};

class Report;

/// The four workloads; each fills `report` and returns 0.
int RunRaster(const Args& args, Report* report);
int RunServing(const Args& args, Report* report);
int RunPagerank(const Args& args, Report* report);
int RunMatmul(const Args& args, Report* report);

/// Microseconds on a process-wide steady clock (epoch: first call).
double NowUs();

std::vector<double> Sorted(std::vector<double> v);
/// Linear-interpolated quantile of an ascending vector; 0 when empty.
double Quantile(const std::vector<double>& sorted, double q);
double Median(std::vector<double> v);

// ---------------------------------------------------------------------
// Span recorder: name, start, end, parent and thread of every public call
// the benchmark makes, kept in memory and written at exit as Chrome
// trace-event JSON. Disabled, it records nothing but still times: the
// untraced run uses the same scopes to measure its set-up phases.

struct Span {
  std::string name;
  uint64_t id = 0;
  uint64_t parent = 0;
  int tid = 0;
  double start_us = 0;
  double end_us = 0;
  std::vector<std::pair<std::string, double>> args;
};

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }
  uint64_t NextId() { return next_id_.fetch_add(1) + 1; }
  void Record(Span span);
  /// Writes every span as Chrome trace-event JSON ("X" events; the span
  /// and parent ids travel in args). Returns false on a write error.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  std::atomic<bool> enabled_;
  std::atomic<uint64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Times a scope and, when the recorder is enabled, records it as a span
/// whose parent is the enclosing ScopedSpan on the same thread.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, std::string name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void Arg(std::string key, double value);
  /// Ends the span now (idempotent); returns its duration in seconds.
  double End();
  /// 0 when not recording.
  uint64_t id() const { return span_.id; }

 private:
  SpanRecorder* rec_;
  Span span_;
  bool recording_;
  bool ended_ = false;
  uint64_t prev_parent_;
};

// ---------------------------------------------------------------------
// Engine counters. The benchmark only reads the counters the engine
// already keeps; a window's value is the difference of two snapshots.

struct Counters {
  uint64_t jobs = 0, stages = 0, tasks = 0, task_time_us = 0;
  uint64_t shuffle_bytes = 0, task_retries = 0, stage_reruns = 0;
  uint64_t cache_hits = 0, cache_misses = 0, evictions = 0;
  uint64_t spilled_bytes = 0, disk_reads = 0;
  uint64_t codec_raw = 0, codec_encoded = 0, codec_encode_us = 0;
  uint64_t rpc_bytes = 0, rpc_roundtrips = 0, remote_fetch_us = 0;
  uint64_t executor_restarts = 0, admission_queued = 0;
  uint64_t mode_transitions = 0;
};
Counters Snapshot(const spangle::EngineMetrics& m);
Counters operator-(const Counters& a, const Counters& b);

/// Collects every StageStat a context records during a window. The
/// engine keeps a bounded ring, so a background thread drains it often
/// enough that no stage is lost. Traced runs only.
class StageCollector {
 public:
  explicit StageCollector(spangle::Context* ctx);
  ~StageCollector();  // Stop()
  StageCollector(const StageCollector&) = delete;
  StageCollector& operator=(const StageCollector&) = delete;

  /// Stops the drain thread and returns every stage recorded since
  /// construction.
  std::vector<spangle::StageStat> Stop();

 private:
  void Drain();

  spangle::Context* ctx_;
  std::unordered_set<uint64_t> seen_;
  std::vector<spangle::StageStat> stages_;
  std::mutex mu_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// ---------------------------------------------------------------------
// Ops and the closed loop.

struct OpRecord {
  int kind = 0;
  bool traced = false;
  bool ok = true;          // no error status, exception or rejection
  double start_us = 0;     // NowUs()
  double end_us = 0;
  uint64_t ctx_start_us = 0;  // Context::NowMicros(), for stage matching
  uint64_t ctx_end_us = 0;
  uint64_t engine_job = 0;    // serving: the engine job the op ran as
  double wait_us = 0;         // serving: JobInfo::wait_us
  double run_us = 0;          // serving: JobInfo::run_us
  bool cache_hit = false;     // serving: served by the result cache
  double ms() const { return (end_us - start_us) / 1000.0; }
};

/// Alternating one-second segments of the traced run: ops that start in
/// an odd segment are traced, the rest are not, so tracing overhead is
/// measured against an interleaved baseline on the same inputs.
bool InTracedSegment(const Args& args, double loop_start_us, double now_us);

/// Set-up runs this many times per run, each time from a fresh context;
/// setup_s is the median.
constexpr int kSetupReps = 5;

/// Every run measures at least this many ops, enough for a p90 with ten
/// samples beyond it.
constexpr size_t kMinOps = 100;

/// Runs `op(i, rec)` back to back from one client until `args.seconds`
/// have passed and at least kMinOps ops ran; calls `at_min_ops` once,
/// right after op kMinOps. Traced ops get a span.
void RunClosedLoop(const Args& args, SpanRecorder* spans,
                   spangle::Context* ctx,
                   const std::vector<std::string>& kind_names,
                   const std::function<int(size_t)>& kind_of,
                   const std::function<bool(size_t, OpRecord&)>& op,
                   const std::function<void()>& at_min_ops,
                   std::vector<OpRecord>* ops);

// ---------------------------------------------------------------------
// The report: end-to-end metrics in the untraced run, per-layer metrics
// in the traced run, plus the provenance line.

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  int daemons = 0;  // spangle_executord processes the workload ran
  /// Adds a number to the provenance line, e.g. an input size.
  void Info(const std::string& key, double value) {
    info_.emplace_back(key, value);
  }
  /// Prints the provenance line, then the result line (last on stdout).
  void Print(const Args& args) const;

 private:
  std::vector<std::pair<std::string, double>> info_;
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      metrics_;
};

/// The end-to-end metrics: setup_s is the median of the timed set-up
/// repetitions; op throughput and latency come from the ops.
void AddEndToEnd(Report* report, const std::vector<double>& setup_s,
                 const std::vector<OpRecord>& ops, double peak_rss_mb);

/// Per-layer metrics read from engine counters over the window, the
/// stages recorded in it, and the ops. A stage belongs to an op by engine
/// job id when `match_stages_by_job` (serving), else by starting inside
/// the op's time window (the single-client workloads).
struct LayerInputs {
  const std::vector<OpRecord>* ops = nullptr;
  Counters window;
  std::vector<spangle::StageStat> stages;
  double high_water_bytes = 0;
  bool match_stages_by_job = false;
};
void AddEngineLayers(Report* report, const LayerInputs& in);

/// bench.trace_overhead_pct from the traced and untraced ops.
void AddTraceOverhead(Report* report, const std::vector<OpRecord>& ops);

/// codec.decode_mbps.{d01,d10,d90}: DecodePartitionFrame over
/// pair<int64_t,double> frames at 1%, 10% and 90% value density.
void AddDecodeProbe(Report* report, uint64_t seed);

/// bitmask.popcount_gbps: CountWords over `words` (the workload's own
/// mask words).
void AddPopcountProbe(Report* report, const std::vector<uint64_t>& words);

/// Writes the benchmark's spans (traced run only) to
/// <trace_dir>/perfbench-<workload>-<seed>.json.
void WriteTrace(const Args& args, const SpanRecorder& spans);

/// Context::DumpTrace to <trace_dir>/engine-<workload>-<seed>.json.
void DumpEngineTrace(const Args& args, spangle::Context* ctx);

/// Peak resident set (VmHWM) of this process plus that of `daemons`, in
/// MB. Workloads read it right after op kMinOps: engine state that grows
/// with every op (JobServer job records, executor daemon memory) then
/// counts the same in every run, whatever the machine's speed.
double PeakRssMb(const std::vector<pid_t>& daemons);

/// True while a process with this pid exists (zombies count as gone).
bool ProcessAlive(pid_t pid);

/// Folds `v` into the running hash `h` (order-dependent).
uint64_t Mix(uint64_t h, uint64_t v);

/// Answers compare bit for bit, except averages, whose summation order
/// differs between engines (relative tolerance 1e-9, as the baseline
/// parity tests use).
bool SameDouble(double got, double want, bool exact);

}  // namespace perfbench

#endif  // SPANGLE_PERFBENCH_BENCH_H_
