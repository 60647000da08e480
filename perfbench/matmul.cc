// The matmul workload: Fig. 10's MᵀM on a cached, uniformly sparse
// mouse-like matrix in DISTRIBUTED mode, so every op runs the
// block x block kernel and ships shuffle frames to and from executor
// daemons over loopback RPC.
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <thread>

#include "bench.h"
#include "matrix/block_matrix.h"
#include "net/executor_fleet.h"
#include "workload/matrix_gen.h"

namespace perfbench {
namespace {

using spangle::BlockMatrix;
using spangle::Context;

constexpr uint64_t kDim = 2048;
constexpr uint64_t kBlock = 256;
constexpr double kDensity = 0.014;
constexpr int kDaemons = 2;

// One op: MᵀM and an order-independent checksum of every stored entry
// of the product (bit patterns of the values, so equal checksums mean
// bit-identical products up to a hash collision).
spangle::Result<uint64_t> MultiplyAndChecksum(const BlockMatrix& m) {
  SPANGLE_ASSIGN_OR_RETURN(BlockMatrix product, m.TransposeSelfMultiply());
  return product.array().chunks().AsRdd().Aggregate<uint64_t>(
      0,
      [](uint64_t acc, const std::pair<spangle::ChunkId, spangle::Chunk>& rec) {
        uint64_t h = Mix(0, rec.first);
        rec.second.ForEachValid([&h](uint32_t offset, double v) {
          uint64_t bits = 0;
          std::memcpy(&bits, &v, sizeof(bits));
          h = Mix(Mix(h, offset), bits);
        });
        return acc + h;
      },
      [](uint64_t a, uint64_t b) { return a + b; });
}

struct MatmulSystem {
  std::unique_ptr<Context> ctx;
  std::optional<BlockMatrix> m;  // before ctx goes

  void Reset() {
    m.reset();
    ctx.reset();
  }
};

}  // namespace

int RunMatmul(const Args& args, Report* report) {
  SpanRecorder spans(args.trace);
  const auto input = spangle::GenerateUniformMatrix("mouse", kDim, kDim,
                                                    kDensity, args.seed);
  report->Info("nnz", static_cast<double>(input.entries.size()));
  report->daemons = kDaemons;
  // MᵀM does one multiply-add per pair of entries sharing a row.
  std::vector<double> row_nnz(kDim, 0);
  for (const auto& e : input.entries) row_nnz[e.row] += 1;
  double flops = 0;
  for (double r : row_nnz) flops += 2 * r * r;

  spangle::DeploymentOptions deploy;
  deploy.mode = spangle::DeploymentMode::kDistributed;
  deploy.distributed.num_executors = kDaemons;
  deploy.distributed.executord_path = args.executord;

  MatmulSystem sys;
  std::vector<double> setup_s, ingest_s;
  std::vector<pid_t> pids;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    sys.Reset();
    ScopedSpan setup(&spans, "setup");
    {
      ScopedSpan spawn(&spans, "setup/spawn_daemons");
      spangle::StorageOptions storage;
      storage.spill_dir = args.work_dir + "/spill-" + std::to_string(rep);
      sys.ctx = std::make_unique<Context>(4, 0, 0, storage, deploy);
    }
    for (int w = 0; w < kDaemons; ++w) {
      pids.push_back(sys.ctx->fleet()->executor_pid(w));
    }
    ScopedSpan ingest(&spans, "setup/ingest");
    auto m = BlockMatrix::FromEntries(sys.ctx.get(), kDim, kDim, kBlock,
                                      input.entries);
    SPANGLE_CHECK(m.ok()) << m.status().ToString();
    sys.m.emplace(*std::move(m));
    sys.m->Cache();
    (void)sys.m->NumNonZero();  // fills the cache
    ingest_s.push_back(ingest.End());
    ScopedSpan warm(&spans, "setup/warmup");
    SPANGLE_CHECK(MultiplyAndChecksum(*sys.m).ok());
    warm.End();
    setup_s.push_back(setup.End());
  }

  Context* ctx = sys.ctx.get();
  std::optional<StageCollector> collector;
  if (args.trace) collector.emplace(ctx);
  const Counters before = Snapshot(ctx->metrics());
  std::vector<OpRecord> ops;
  std::vector<uint64_t> checksums;
  std::vector<pid_t> daemons;
  for (int w = 0; w < kDaemons; ++w) {
    daemons.push_back(ctx->fleet()->executor_pid(w));
  }
  double peak_rss_mb = 0;
  RunClosedLoop(
      args, &spans, ctx, {"MtM"}, [](size_t) { return 0; },
      [&](size_t, OpRecord&) {
        auto sum = MultiplyAndChecksum(*sys.m);
        checksums.push_back(sum.ok() ? *sum : 0);
        return sum.ok();
      },
      [&] { peak_rss_mb = PeakRssMb(daemons); }, &ops);
  const Counters window = Snapshot(ctx->metrics()) - before;

  if (args.trace) {
    LayerInputs in;
    in.ops = &ops;
    in.window = window;
    in.stages = collector->Stop();
    in.high_water_bytes =
        static_cast<double>(ctx->metrics().memory_high_water.load());
    AddEngineLayers(report, in);
    AddTraceOverhead(report, ops);
    const double mflop = flops / 1e6;
    const double task_ms = static_cast<double>(window.task_time_us) / 1000.0 /
                           static_cast<double>(std::max<size_t>(1, ops.size()));
    report->Add("matrix.mflop_per_op", mflop, "Mflop");
    report->Add("matrix.gflops", task_ms > 0 ? mflop / task_ms : 0, "GFLOP/s");
    report->Add("array.ingest_s", Median(ingest_s), "s");
    std::vector<uint64_t> words;
    for (const auto& [id, chunk] : sys.m->array().chunks().Collect()) {
      const auto mask = chunk.FlatMask();
      words.insert(words.end(), mask.words().begin(), mask.words().end());
    }
    AddPopcountProbe(report, words);
    AddDecodeProbe(report, args.seed);
    DumpEngineTrace(args, ctx);
  }
  sys.Reset();

  // Every daemon this run spawned must be gone once its context is.
  for (pid_t pid : pids) {
    for (int i = 0; i < 100 && ProcessAlive(pid); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    if (ProcessAlive(pid)) {
      std::fprintf(stderr, "spangle_executord pid %d survived its context\n",
                   static_cast<int>(pid));
      report->correct = false;
    }
  }

  // Oracle: the same multiply in LOCAL mode.
  uint64_t want = 0;
  {
    Context local(4);
    auto m = BlockMatrix::FromEntries(&local, kDim, kDim, kBlock,
                                      input.entries);
    SPANGLE_CHECK(m.ok()) << m.status().ToString();
    auto sum = MultiplyAndChecksum(*m);
    SPANGLE_CHECK(sum.ok()) << sum.status().ToString();
    want = *sum;
  }
  for (size_t i = 0; i < ops.size(); ++i) {
    if (static_cast<int64_t>(i) == args.corrupt_op) checksums[i] ^= 1;
    ++report->attempted;
    if (!ops[i].ok || checksums[i] != want) ++report->failed;
  }
  if (!args.trace) AddEndToEnd(report, setup_s, ops, peak_rss_mb);
  WriteTrace(args, spans);
  return 0;
}

}  // namespace perfbench
