// The pagerank workload: PageRank (Fig. 11) on an R-MAT graph whose
// working set exceeds the block store's memory budget, so every power
// iteration evicts, spills and reads blocks back through the codec.
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>

#include "bench.h"
#include "matrix/mask_matrix.h"
#include "ml/pagerank.h"
#include "workload/graph_gen.h"

namespace perfbench {
namespace {

using spangle::Context;

// Power iterations per PageRank() call. Iteration 0 of a call also
// builds and caches the matrix, so it is set-up, not an op.
constexpr int kIterations = 40;

struct Reference {
  uint64_t matrix_bytes = 0;
  std::vector<double> deltas;
  std::vector<double> ranks;
};

bool ReadAll(int fd, void* buf, size_t n) {
  auto* p = static_cast<char*>(buf);
  while (n > 0) {
    const ssize_t r = ::read(fd, p, n);
    if (r <= 0) return false;
    p += r;
    n -= static_cast<size_t>(r);
  }
  return true;
}

bool WriteAll(int fd, const void* buf, size_t n) {
  const auto* p = static_cast<const char*>(buf);
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w <= 0) return false;
    p += w;
    n -= static_cast<size_t>(w);
  }
  return true;
}

spangle::PageRankOptions Options(int iterations) {
  spangle::PageRankOptions o;
  o.iterations = iterations;
  o.storage_level = spangle::StorageLevel::kMemoryAndDisk;
  return o;
}

// The same call with no memory budget, in a child process so that its
// memory stays out of the measured peak RSS. Must run before this
// process starts any thread.
Reference UnbudgetedReference(
    const Args& args, uint64_t n,
    const std::vector<std::pair<uint64_t, uint64_t>>& edges) {
  int fds[2];
  SPANGLE_CHECK(::pipe(fds) == 0);
  const pid_t pid = ::fork();
  SPANGLE_CHECK(pid >= 0);
  if (pid == 0) {
    ::close(fds[0]);
    spangle::StorageOptions storage;
    storage.spill_dir = args.work_dir + "/spill-reference";
    Context ctx(4, 0, 0, storage);
    auto r = spangle::PageRank(&ctx, n, edges, Options(kIterations));
    if (!r.ok() || r->deltas.size() != kIterations) ::_exit(1);
    const uint64_t bytes = r->matrix_bytes;
    const bool ok = WriteAll(fds[1], &bytes, sizeof(bytes)) &&
                    WriteAll(fds[1], r->deltas.data(),
                             r->deltas.size() * sizeof(double)) &&
                    WriteAll(fds[1], r->ranks.data(),
                             r->ranks.size() * sizeof(double));
    ::_exit(ok ? 0 : 1);
  }
  ::close(fds[1]);
  Reference ref;
  ref.deltas.resize(kIterations);
  ref.ranks.resize(n);
  const bool ok = ReadAll(fds[0], &ref.matrix_bytes, sizeof(uint64_t)) &&
                  ReadAll(fds[0], ref.deltas.data(),
                          ref.deltas.size() * sizeof(double)) &&
                  ReadAll(fds[0], ref.ranks.data(),
                          ref.ranks.size() * sizeof(double));
  ::close(fds[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  SPANGLE_CHECK(ok && WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "unbudgeted reference PageRank failed";
  return ref;
}

}  // namespace

int RunPagerank(const Args& args, Report* report) {
  SpanRecorder spans(args.trace);
  // Twitter-like R-MAT graph: 2^16 vertices, 24 edges per vertex.
  spangle::RmatOptions ro;
  ro.scale = 16;
  ro.edges_per_vertex = 24;
  ro.seed = args.seed;
  const auto edges = spangle::GenerateRmat(ro);
  const uint64_t n = uint64_t{1} << ro.scale;
  report->Info("edges", static_cast<double>(edges.size()));

  const Reference ref = UnbudgetedReference(args, n, edges);
  spangle::StorageOptions storage;
  storage.memory_budget_bytes = ref.matrix_bytes / 2;
  report->Info("memory_budget_bytes",
               static_cast<double>(storage.memory_budget_bytes));

  // Set-up: a budgeted context and a two-iteration warm-up call.
  std::unique_ptr<Context> ctx;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    ctx.reset();
    ScopedSpan setup(&spans, "setup");
    storage.spill_dir = args.work_dir + "/spill-" + std::to_string(rep);
    ctx = std::make_unique<Context>(4, 0, 0, storage);
    ScopedSpan warm(&spans, "setup/warmup");
    auto r = spangle::PageRank(ctx.get(), n, edges, Options(2));
    SPANGLE_CHECK(r.ok()) << r.status().ToString();
    warm.End();
    setup_s.push_back(setup.End());
  }

  std::optional<StageCollector> collector;
  if (args.trace) collector.emplace(ctx.get());
  const Counters before = Snapshot(ctx->metrics());
  std::vector<OpRecord> ops;
  std::vector<double> build_s;
  const double start = NowUs();
  double peak_rss_mb = 0;
  for (int call = 0;
       NowUs() < start + args.seconds * 1e6 || ops.size() < kMinOps;
       ++call) {
    // Whole calls alternate between traced and untraced.
    const bool traced = args.trace && call % 2 == 1;
    spans.set_enabled(traced);
    ScopedSpan call_span(&spans, "PageRank");
    const double call_start = NowUs();
    double first_cb_us = 0;
    double last_us = 0;
    uint64_t last_ctx_us = 0;
    Counters last_counters;
    const size_t first_op = ops.size();
    spangle::PageRankOptions opts = Options(kIterations);
    opts.on_iteration = [&](int it, double delta) {
      const double now = NowUs();
      const uint64_t now_ctx = ctx->NowMicros();
      const Counters counters =
          traced ? Snapshot(ctx->metrics()) : Counters{};
      if (it > 0) {
        OpRecord rec;
        rec.traced = traced;
        rec.start_us = last_us;
        rec.end_us = now;
        rec.ctx_start_us = last_ctx_us;
        rec.ctx_end_us = now_ctx;
        rec.ok = SameDouble(delta, ref.deltas[it], true);
        ops.push_back(rec);
        if (ops.size() == kMinOps) peak_rss_mb = PeakRssMb({});
        if (traced) {
          const Counters d = counters - last_counters;
          Span s;
          s.name = "op/iteration";
          s.id = spans.NextId();
          s.parent = call_span.id();
          s.start_us = rec.start_us;
          s.end_us = rec.end_us;
          s.tid = 0;
          s.args = {{"iteration", static_cast<double>(it)},
                    {"stages", static_cast<double>(d.stages)},
                    {"tasks", static_cast<double>(d.tasks)},
                    {"spilled_bytes", static_cast<double>(d.spilled_bytes)},
                    {"disk_reads", static_cast<double>(d.disk_reads)},
                    {"evictions", static_cast<double>(d.evictions)}};
          spans.Record(std::move(s));
        }
      } else {
        first_cb_us = now;
      }
      last_us = now;
      last_ctx_us = now_ctx;
      last_counters = counters;
    };
    auto r = spangle::PageRank(ctx.get(), n, edges, opts);
    call_span.End();
    if (!r.ok()) {
      std::fprintf(stderr, "PageRank failed: %s\n", r.status().ToString().c_str());
      for (size_t i = first_op; i < ops.size(); ++i) ops[i].ok = false;
      if (ops.size() == first_op) {
        OpRecord failed;
        failed.ok = false;
        failed.start_us = call_start;
        failed.end_us = NowUs();
        ops.push_back(failed);
      }
      continue;
    }
    build_s.push_back((first_cb_us - call_start) / 1e6 -
                      r->iteration_seconds.front());
    // The last op produced the call's ranks.
    std::vector<double> ranks = r->ranks;
    if (call == 0 && args.corrupt_op >= 0) ranks[0] += 1e-9;
    if (ranks.size() != ref.ranks.size() ||
        std::memcmp(ranks.data(), ref.ranks.data(),
                    ranks.size() * sizeof(double)) != 0) {
      ops.back().ok = false;
    }
  }
  spans.set_enabled(false);
  const Counters window = Snapshot(ctx->metrics()) - before;
  for (const auto& op : ops) {
    ++report->attempted;
    if (!op.ok) ++report->failed;
  }

  if (args.trace) {
    LayerInputs in;
    in.ops = &ops;
    in.window = window;
    in.stages = collector->Stop();
    in.high_water_bytes =
        static_cast<double>(ctx->metrics().memory_high_water.load());
    AddEngineLayers(report, in);
    AddTraceOverhead(report, ops);
    report->Add("ml.matrix_build_s", Median(build_s), "s");
    // A' x v touches every edge once with one multiply-add.
    const double mflop = 2.0 * static_cast<double>(edges.size()) / 1e6;
    const double task_ms =
        static_cast<double>(window.task_time_us) / 1000.0 /
        static_cast<double>(std::max<size_t>(1, ops.size()));
    report->Add("matrix.mflop_per_op", mflop, "Mflop");
    report->Add("matrix.gflops", task_ms > 0 ? mflop / task_ms : 0, "GFLOP/s");
    // The array layer's ingest here is the bitmask matrix build; its
    // tiles are also the popcount probe's input.
    std::vector<std::pair<uint64_t, uint64_t>> dst_src;
    dst_src.reserve(edges.size());
    for (const auto& [src, dst] : edges) dst_src.emplace_back(dst, src);
    ScopedSpan ingest(nullptr, "ingest");
    auto m = spangle::MaskMatrix::FromEdges(ctx.get(), n, 1024, dst_src);
    SPANGLE_CHECK(m.ok()) << m.status().ToString();
    m->Cache();
    std::vector<uint64_t> words;
    for (const auto& [id, tile] : m->tiles().Collect()) {
      if (!tile.hierarchical) {
        words.insert(words.end(), tile.flat.words().begin(),
                     tile.flat.words().end());
      }
    }
    report->Add("array.ingest_s", ingest.End(), "s");
    AddPopcountProbe(report, words);
    AddDecodeProbe(report, args.seed);
    DumpEngineTrace(args, ctx.get());
  }
  ctx.reset();
  if (!args.trace) {
    AddEndToEnd(report, setup_s, ops, peak_rss_mb);
  }
  WriteTrace(args, spans);
  return 0;
}

}  // namespace perfbench
