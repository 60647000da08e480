// The raster and serving workloads: Table I queries Q1-Q5 over one
// SDSS-like sky array, from one client (raster) or from four concurrent
// JobServer sessions (serving).

#include <algorithm>
#include <array>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>

#include "baselines/dense_engine.h"
#include "bench.h"
#include "common/random.h"
#include "engine/job_server.h"
#include "workload/queries.h"
#include "workload/raster_gen.h"

namespace perfbench {
namespace {

using spangle::Context;
using spangle::JobServer;
using spangle::QueryParams;
using spangle::RasterData;
using spangle::Rng;
using spangle::SpangleRasterEngine;

const std::vector<std::string> kQueryNames = {"Q1", "Q2", "Q3", "Q4", "Q5"};

// 16 images of 512x512 pixels, 5 bands, 128x128 chunks: ~1.38 M valid
// cells, all cached in memory.
RasterData MakeSky(uint64_t seed) {
  spangle::SkyOptions o;
  o.images = 16;
  o.width = 512;
  o.height = 512;
  o.bands = 5;
  o.chunk = 128;
  o.source_density = 0.004;
  o.seed = seed;
  return spangle::GenerateSky(o);
}

QueryParams BaseParams() {
  QueryParams q;
  q.attr = "u";
  q.attr2 = "g";
  q.threshold = 0.5;
  q.threshold2 = 0.8;
  q.grid = {1, 8, 8};
  q.min_count = 2;
  return q;
}

// A seeded box of fixed extent, so every seed costs the same.
QueryParams RandomBox(const RasterData& data, Rng* rng, int64_t images,
                      int64_t edge) {
  QueryParams q = BaseParams();
  const auto img_max = static_cast<int64_t>(data.meta.dim(0).size) - images;
  const auto x_max = static_cast<int64_t>(data.meta.dim(1).size) - edge;
  const auto y_max = static_cast<int64_t>(data.meta.dim(2).size) - edge;
  const auto img = static_cast<int64_t>(rng->NextBounded(img_max + 1));
  const auto x = static_cast<int64_t>(rng->NextBounded(x_max + 1));
  const auto y = static_cast<int64_t>(rng->NextBounded(y_max + 1));
  q.lo = {img, x, y};
  q.hi = {img + images - 1, x + edge - 1, y + edge - 1};
  q.use_range = true;
  return q;
}

struct Answer {
  double d = 0;
  uint64_t u = 0;
};

spangle::Result<Answer> RunQuery(spangle::RasterEngine* e, int kind,
                                 const QueryParams& q) {
  Answer a;
  if (kind == 0) {
    SPANGLE_ASSIGN_OR_RETURN(a.d, e->Q1Average(q));
  } else if (kind == 1) {
    SPANGLE_ASSIGN_OR_RETURN(a.u, e->Q2Regrid(q));
  } else if (kind == 2) {
    SPANGLE_ASSIGN_OR_RETURN(a.d, e->Q3FilteredAverage(q));
  } else if (kind == 3) {
    SPANGLE_ASSIGN_OR_RETURN(a.u, e->Q4Polygons(q));
  } else {
    SPANGLE_ASSIGN_OR_RETURN(a.u, e->Q5Density(q));
  }
  return a;
}

bool SameAnswer(int kind, const Answer& got, const Answer& want) {
  if (kind == 0 || kind == 2) return SameDouble(got.d, want.d, false);
  return got.u == want.u;
}

// Identifies a query's answer: the kind and, with the range predicate
// on, the box.
uint64_t QueryDigest(int kind, const QueryParams& q) {
  uint64_t h = Mix(0x5eed, static_cast<uint64_t>(kind));
  if (q.use_range) {
    for (auto v : q.lo) h = Mix(h, static_cast<uint64_t>(v));
    for (auto v : q.hi) h = Mix(h, static_cast<uint64_t>(v));
  }
  return h == 0 ? 1 : h;
}

spangle::SciSparkEngine LoadOracle(Context* ctx, const RasterData& data) {
  auto engine = spangle::SciSparkEngine::Load(ctx, data);
  SPANGLE_CHECK(engine.ok()) << engine.status().ToString();
  return *std::move(engine);
}

// Images [first, first + count) of `data`, renumbered from 0. Q1, Q3
// and Q4 over a box inside those images read nothing else, so the dense
// baseline answers them from this slice at a fraction of the cost of a
// scan over every image.
RasterData ImageSlice(const RasterData& data, int64_t first, int64_t count) {
  RasterData out;
  auto dims = data.meta.dims();
  dims[0].size = static_cast<uint64_t>(count);
  out.meta = *spangle::ArrayMetadata::Make(dims);
  out.attr_names = data.attr_names;
  out.cells.resize(data.cells.size());
  for (size_t b = 0; b < data.cells.size(); ++b) {
    for (const auto& cell : data.cells[b]) {
      if (cell.pos[0] >= first && cell.pos[0] < first + count) {
        out.cells[b].push_back(cell);
        out.cells[b].back().pos[0] -= first;
      }
    }
  }
  return out;
}

// The engine and the context it lives in. Members are declared so that
// destruction runs server, engine, context: the engine's RDDs must go
// before the context.
struct RasterSystem {
  std::unique_ptr<Context> ctx;
  std::optional<SpangleRasterEngine> engine;
  std::unique_ptr<JobServer> server;
  std::vector<JobServer::SessionId> sessions;

  void Reset() {
    sessions.clear();
    server.reset();
    engine.reset();
    ctx.reset();
  }
};

// Context, ingest (ToSpangle), engine construction (caching and, for
// raster, the overlap build). Returns the ingest seconds.
double BuildRasterSystem(const RasterData& data, uint64_t overlap_radius,
                         SpanRecorder* spans, RasterSystem* sys) {
  sys->ctx = std::make_unique<Context>(4);
  ScopedSpan ingest(spans, "setup/ingest");
  auto array = data.ToSpangle(sys->ctx.get());
  const double ingest_s = ingest.End();
  SPANGLE_CHECK(array.ok()) << array.status().ToString();
  ScopedSpan build(spans, "setup/engine");
  sys->engine.emplace(*std::move(array), overlap_radius);
  return ingest_s;
}

// Every valid-cell bitmask word of attribute "u", from a second ingest
// (the engine does not expose its array).
std::vector<uint64_t> MaskWords(const RasterData& data, Context* ctx) {
  std::vector<uint64_t> words;
  auto array = data.ToSpangle(ctx);
  if (!array.ok()) return words;
  auto attr = array->RawAttribute("u");
  if (!attr.ok()) return words;
  for (const auto& [id, chunk] : attr->chunks().Collect()) {
    const auto mask = chunk.FlatMask();
    words.insert(words.end(), mask.words().begin(), mask.words().end());
  }
  return words;
}

void AddRasterProbes(Report* report, const Args& args, const RasterData& data,
                     Context* ctx, const std::vector<double>& ingest_s) {
  report->Add("array.ingest_s", Median(ingest_s), "s");
  AddPopcountProbe(report, MaskWords(data, ctx));
  AddDecodeProbe(report, args.seed);
}

}  // namespace

int RunRaster(const Args& args, Report* report) {
  SpanRecorder spans(args.trace);
  const RasterData data = MakeSky(args.seed);
  report->Info("valid_cells", static_cast<double>(data.TotalValid()));

  // A fixed seeded sequence: rounds of Q1..Q5, every other round with
  // the range predicate on a fresh seeded box (half the image stack, a
  // quarter of each frame), the others over the whole array.
  Rng rng(args.seed * 31 + 1);
  std::vector<QueryParams> rounds;
  for (int r = 0; r < 16; ++r) {
    QueryParams q = RandomBox(data, &rng, 8, 256);
    q.use_range = r % 2 == 0;
    rounds.push_back(q);
  }
  auto params_of = [&rounds](size_t i) { return rounds[(i / 5) % rounds.size()]; };

  RasterSystem sys;
  std::vector<double> setup_s, ingest_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    sys.Reset();
    ScopedSpan setup(&spans, "setup");
    ingest_s.push_back(BuildRasterSystem(data, 7, &spans, &sys));
    ScopedSpan warm(&spans, "setup/warmup");
    for (size_t i = 0; i < 10; ++i) {
      (void)RunQuery(&*sys.engine, static_cast<int>(i % 5), params_of(i));
    }
    warm.End();
    setup_s.push_back(setup.End());
  }

  Context* ctx = sys.ctx.get();
  std::optional<StageCollector> collector;
  if (args.trace) collector.emplace(ctx);
  const Counters before = Snapshot(ctx->metrics());
  std::vector<OpRecord> ops;
  std::vector<Answer> answers;
  double peak_rss_mb = 0;
  RunClosedLoop(
      args, &spans, ctx, kQueryNames,
      [](size_t i) { return static_cast<int>(i % 5); },
      [&](size_t i, OpRecord& rec) {
        auto a = RunQuery(&*sys.engine, rec.kind, params_of(i));
        answers.push_back(a.ok() ? *a : Answer{});
        return a.ok();
      },
      [&] { peak_rss_mb = PeakRssMb({}); }, &ops);
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
    for (int k = 0; k < 5; ++k) {
      std::vector<double> ms;
      for (const auto& op : ops) {
        if (op.traced && op.kind == k) ms.push_back(op.ms());
      }
      report->Add("ops.q" + std::to_string(k + 1) + "_ms.p50", Median(ms),
                  "ms");
    }
    AddRasterProbes(report, args, data, ctx, ingest_s);
    DumpEngineTrace(args, ctx);
  }
  sys.Reset();

  // Oracle: the SciSpark-like dense baseline on the same queries.
  {
    Context octx(4);
    auto oracle = LoadOracle(&octx, data);
    std::unordered_map<uint64_t, Answer> expected;
    for (size_t i = 0; i < ops.size(); ++i) {
      const QueryParams q = params_of(i);
      const int kind = ops[i].kind;
      const uint64_t key = QueryDigest(kind, q);
      auto it = expected.find(key);
      if (it == expected.end()) {
        auto want = RunQuery(&oracle, kind, q);
        SPANGLE_CHECK(want.ok()) << want.status().ToString();
        it = expected.emplace(key, *want).first;
      }
      if (static_cast<int64_t>(i) == args.corrupt_op) {
        answers[i].u ^= 1;
        answers[i].d += 1;
      }
      ++report->attempted;
      if (!ops[i].ok || !SameAnswer(kind, answers[i], it->second)) {
        ++report->failed;
      }
    }
  }
  if (!args.trace) AddEndToEnd(report, setup_s, ops, peak_rss_mb);
  WriteTrace(args, spans);
  return 0;
}

int RunServing(const Args& args, Report* report) {
  constexpr int kSessions = 4;
  SpanRecorder spans(args.trace);
  const RasterData data = MakeSky(args.seed);
  report->Info("valid_cells", static_cast<double>(data.TotalValid()));

  // Cheap queries (Q1, Q3, Q4) on small boxes: 2 images x 64 x 64.
  const int kCheap[3] = {0, 2, 3};
  // Kept small: every op stays in the logs, and its copy in the job
  // closure stays in the JobServer, for the whole run.
  struct ServingOp {
    int kind = 0;
    std::array<int64_t, 3> lo{}, hi{};
    uint64_t digest = 0;
    QueryParams params() const {
      QueryParams q = BaseParams();
      q.lo.assign(lo.begin(), lo.end());
      q.hi.assign(hi.begin(), hi.end());
      return q;
    }
  };
  auto fresh_op = [&](Rng* r) {
    ServingOp op;
    op.kind = kCheap[r->NextBounded(3)];
    const QueryParams q = RandomBox(data, r, 2, 64);
    std::copy(q.lo.begin(), q.lo.end(), op.lo.begin());
    std::copy(q.hi.begin(), q.hi.end(), op.hi.begin());
    op.digest = QueryDigest(op.kind, q);
    return op;
  };
  Rng pool_rng(args.seed * 31 + 2);
  std::vector<ServingOp> pool;
  for (int i = 0; i < 16; ++i) pool.push_back(fresh_op(&pool_rng));
  // Each session's fixed seeded sequence: half drawn from the shared
  // pool (result-cache hits after first use), half fresh.
  auto session_op = [&](Rng* r) {
    if (r->NextBool(0.5)) return pool[r->NextBounded(pool.size())];
    return fresh_op(r);
  };

  auto submit = [](RasterSystem* sys, JobServer::SessionId session,
                   const ServingOp& op) {
    JobServer::SubmitOptions opts;
    opts.label = kQueryNames[op.kind];
    opts.digest = op.digest;
    spangle::RasterEngine* engine = &*sys->engine;
    return sys->server->Submit(
        session,
        [engine, op]() -> spangle::Result<JobServer::Payload> {
          SPANGLE_ASSIGN_OR_RETURN(Answer a,
                                   RunQuery(engine, op.kind, op.params()));
          auto p = std::make_shared<const Answer>(a);
          return JobServer::Payload{p, sizeof(Answer)};
        },
        opts);
  };

  RasterSystem sys;
  std::vector<double> setup_s, ingest_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    sys.Reset();
    ScopedSpan setup(&spans, "setup");
    ingest_s.push_back(BuildRasterSystem(data, 0, &spans, &sys));
    JobServer::Options opts;
    opts.result_cache_bytes = 16u << 20;
    sys.server = std::make_unique<JobServer>(sys.ctx.get(), opts);
    for (int s = 0; s < kSessions; ++s) {
      JobServer::SessionOptions so;
      so.name = "tenant-" + std::to_string(s);
      sys.sessions.push_back(sys.server->OpenSession(so));
    }
    ScopedSpan warm(&spans, "setup/warmup");
    for (size_t i = 0; i < pool.size(); ++i) {
      auto job = submit(&sys, sys.sessions[i % kSessions], pool[i]);
      if (job.ok()) (void)sys.server->Wait(*job);
    }
    warm.End();
    setup_s.push_back(setup.End());
  }

  Context* ctx = sys.ctx.get();
  std::vector<size_t> ids_before(kSessions);
  for (int s = 0; s < kSessions; ++s) {
    ids_before[s] = sys.server->Stats(sys.sessions[s]).engine_job_ids.size();
  }
  std::optional<StageCollector> collector;
  if (args.trace) collector.emplace(ctx);
  const Counters before = Snapshot(ctx->metrics());

  struct SessionLog {
    std::vector<OpRecord> ops;
    std::vector<ServingOp> issued;
    std::vector<Answer> answers;
  };
  std::vector<SessionLog> logs(kSessions);
  const double start = NowUs();
  const double deadline = start + args.seconds * 1e6;
  std::atomic<size_t> total{0};
  double peak_rss_mb = 0;  // written by one client, read after the joins
  std::vector<std::thread> clients;
  for (int s = 0; s < kSessions; ++s) {
    clients.emplace_back([&, s] {
      Rng r(args.seed * 7919 + static_cast<uint64_t>(s) + 3);
      SessionLog& log = logs[s];
      while (NowUs() < deadline || total.load() < kMinOps) {
        const ServingOp op = session_op(&r);
        OpRecord rec;
        rec.kind = op.kind;
        rec.traced = InTracedSegment(args, start, NowUs());
        Answer answer;
        {
          ScopedSpan span(rec.traced ? &spans : nullptr,
                          "job/" + kQueryNames[op.kind]);
          rec.start_us = NowUs();
          auto job = [&] {
            ScopedSpan submit_span(rec.traced ? &spans : nullptr, "submit");
            return submit(&sys, sys.sessions[s], op);
          }();
          if (job.ok()) {
            ScopedSpan wait_span(rec.traced ? &spans : nullptr, "wait");
            const spangle::Status st = sys.server->Wait(*job);
            wait_span.End();
            const auto info = sys.server->Info(*job);
            rec.wait_us = static_cast<double>(info.wait_us);
            rec.run_us = static_cast<double>(info.run_us);
            rec.cache_hit = info.cache_hit;
            rec.ok = st.ok();
            if (st.ok()) {
              answer = *std::static_pointer_cast<const Answer>(
                  sys.server->ResultPayload(*job).data);
            }
            span.Arg("wait_us", rec.wait_us);
            span.Arg("run_us", rec.run_us);
            span.Arg("cache_hit", rec.cache_hit ? 1 : 0);
          } else {
            rec.ok = false;  // rejected at Submit
          }
          rec.end_us = NowUs();
        }
        log.ops.push_back(rec);
        log.issued.push_back(op);
        log.answers.push_back(answer);
        if (total.fetch_add(1) + 1 == kMinOps) peak_rss_mb = PeakRssMb({});
      }
    });
  }
  for (auto& c : clients) c.join();
  const Counters window = Snapshot(ctx->metrics()) - before;

  // Engine job ids in completion order per session; one job in flight
  // per session, so the k-th executed op ran as the k-th id.
  std::vector<OpRecord> ops;
  std::vector<double> completed(kSessions);
  for (int s = 0; s < kSessions; ++s) {
    const auto ids = sys.server->Stats(sys.sessions[s]).engine_job_ids;
    size_t next = ids_before[s];
    for (auto& op : logs[s].ops) {
      if (op.ok && !op.cache_hit && next < ids.size()) op.engine_job = ids[next++];
      ops.push_back(op);
    }
    completed[s] = static_cast<double>(logs[s].ops.size());
  }

  if (args.trace) {
    LayerInputs in;
    in.ops = &ops;
    in.window = window;
    in.stages = collector->Stop();
    in.high_water_bytes =
        static_cast<double>(ctx->metrics().memory_high_water.load());
    in.match_stages_by_job = true;
    AddEngineLayers(report, in);
    AddTraceOverhead(report, ops);
    std::vector<double> wait_ms, run_ms, per_kind[5];
    double hits = 0;
    for (const auto& op : ops) {
      wait_ms.push_back(op.wait_us / 1000.0);
      run_ms.push_back(op.run_us / 1000.0);
      if (op.cache_hit) {
        ++hits;
      } else {
        per_kind[op.kind].push_back(op.run_us / 1000.0);
      }
    }
    for (int k : kCheap) {
      report->Add("ops.q" + std::to_string(k + 1) + "_ms.p50",
                  Median(per_kind[k]), "ms");
    }
    const auto wait_sorted = Sorted(wait_ms);
    report->Add("job_server.queue_wait_ms.p50", Quantile(wait_sorted, 0.5), "ms");
    report->Add("job_server.queue_wait_ms.p90", Quantile(wait_sorted, 0.9), "ms");
    report->Add("job_server.run_ms.p50", Median(run_ms), "ms");
    report->Add("job_server.admission_queued_per_op",
                static_cast<double>(window.admission_queued) /
                    static_cast<double>(std::max<size_t>(1, ops.size())),
                "count");
    const auto share = Sorted(completed);
    report->Add("job_server.session_share_min",
                share.back() > 0 ? share.front() / share.back() : 0, "ratio");
    report->Add("result_cache.hit_frac",
                hits / static_cast<double>(std::max<size_t>(1, ops.size())),
                "fraction");
    AddRasterProbes(report, args, data, ctx, ingest_s);
    DumpEngineTrace(args, ctx);
  }
  sys.Reset();

  // Oracle: every distinct (query, box) on the dense baseline, fed only
  // the two images the box covers.
  {
    std::map<int64_t, std::vector<std::pair<int, size_t>>> by_image;
    for (int s = 0; s < kSessions; ++s) {
      for (size_t i = 0; i < logs[s].issued.size(); ++i) {
        by_image[logs[s].issued[i].lo[0]].emplace_back(s, i);
      }
    }
    std::unordered_map<uint64_t, Answer> expected;
    Context octx(4);
    for (const auto& [first, members] : by_image) {
      auto oracle = LoadOracle(&octx, ImageSlice(data, first, 2));
      for (const auto& [s, i] : members) {
        const ServingOp& op = logs[s].issued[i];
        if (expected.count(op.digest) > 0) continue;
        QueryParams q = op.params();
        q.lo[0] -= first;
        q.hi[0] -= first;
        auto want = RunQuery(&oracle, op.kind, q);
        SPANGLE_CHECK(want.ok()) << want.status().ToString();
        expected.emplace(op.digest, *want);
      }
    }
    int64_t checked = 0;
    for (int s = 0; s < kSessions; ++s) {
      for (size_t i = 0; i < logs[s].ops.size(); ++i, ++checked) {
        const ServingOp& op = logs[s].issued[i];
        Answer got = logs[s].answers[i];
        if (checked == args.corrupt_op) {
          got.u ^= 1;
          got.d += 1;
        }
        ++report->attempted;
        if (!logs[s].ops[i].ok ||
            !SameAnswer(op.kind, got, expected.at(op.digest))) {
          ++report->failed;
        }
      }
    }
  }
  if (!args.trace) AddEndToEnd(report, setup_s, ops, peak_rss_mb);
  WriteTrace(args, spans);
  return 0;
}

}  // namespace perfbench
