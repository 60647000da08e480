// DISTRIBUTED-mode integration suite: a Context backed by real
// spangle_executord child processes on loopback TCP. The differential
// oracle is LOCAL mode — both modes run the task bodies in the driver,
// only the shuffle data plane moves, so every workload must produce
// bit-identical results. The chaos cases SIGKILL a live daemon mid-job
// (via ChaosPolicy and via a raw kill(2)) and require the job to finish
// correctly through lineage re-planning.
//
// Kill targets derive from SPANGLE_CHAOS_SEED (default 1234) so
// scripts/stress.sh can rotate which daemon dies.

#include <gtest/gtest.h>
#include <signal.h>

#include <chrono>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "engine/engine.h"
#include "matrix/block_matrix.h"
#include "ml/pagerank.h"
#include "net/executor_fleet.h"
#include "workload/graph_gen.h"

namespace spangle {
namespace {

uint64_t BaseSeed() {
  const char* env = std::getenv("SPANGLE_CHAOS_SEED");
  if (env != nullptr && *env != '\0') {
    return std::strtoull(env, nullptr, 10);
  }
  return 1234;
}

DeploymentOptions Distributed(int num_executors = 2,
                              int heartbeat_interval_ms = 0,
                              int heartbeat_miss_limit = 3) {
  DeploymentOptions d;
  d.mode = DeploymentMode::kDistributed;
  d.distributed.num_executors = num_executors;
  d.distributed.heartbeat_interval_ms = heartbeat_interval_ms;
  d.distributed.heartbeat_miss_limit = heartbeat_miss_limit;
  return d;
}

/// WordCount-ish pipeline: ints -> (key, 1) -> reduceByKey -> sorted map.
std::map<int, int> CountByBucket(Context* ctx, int n, int buckets) {
  std::vector<int> data(n);
  for (int i = 0; i < n; ++i) data[i] = i;
  auto pairs = ctx->Parallelize(std::move(data))
                   .Map([buckets](const int& v) {
                     return std::pair<int, int>(v % buckets, 1);
                   });
  auto counts = PairRdd<int, int>(pairs).ReduceByKey(
      [](const int& a, const int& b) { return a + b; });
  std::map<int, int> out;
  for (const auto& [k, v] : counts.Collect()) out[k] = v;
  return out;
}

TEST(DistributedModeTest, FleetSpawnsAndShutsDownCleanly) {
  Context ctx(2, 4, 0, {}, Distributed(2));
  ASSERT_TRUE(ctx.distributed());
  ASSERT_NE(ctx.fleet(), nullptr);
  EXPECT_EQ(ctx.fleet()->num_executors(), 2);
  EXPECT_GT(ctx.fleet()->executor_pid(0), 0);
  EXPECT_GT(ctx.fleet()->executor_pid(1), 0);
  EXPECT_NE(ctx.fleet()->executor_pid(0), ctx.fleet()->executor_pid(1));
}

TEST(DistributedModeTest, ReduceByKeyMatchesLocalBitExactly) {
  Context local(2, 4);
  Context dist(2, 4, 0, {}, Distributed(2));
  const auto want = CountByBucket(&local, 1000, 17);
  const auto got = CountByBucket(&dist, 1000, 17);
  EXPECT_EQ(got, want);
  // The shuffle data plane actually went over the wire.
  EXPECT_GT(dist.metrics().remote_shuffle_fetches.load(), 0u);
  EXPECT_GT(dist.metrics().rpc_roundtrips.load(), 0u);
  EXPECT_GT(dist.metrics().rpc_bytes_sent.load(), 0u);
  EXPECT_GT(dist.metrics().rpc_bytes_received.load(), 0u);
  EXPECT_EQ(local.metrics().remote_shuffle_fetches.load(), 0u);
}

TEST(DistributedModeTest, CountAndDistinctMatchLocal) {
  Context local(2, 4);
  Context dist(2, 4, 0, {}, Distributed(2));
  auto make = [](Context* ctx) {
    std::vector<int> data;
    for (int i = 0; i < 500; ++i) data.push_back(i % 50);
    return ctx->Parallelize(std::move(data));
  };
  EXPECT_EQ(make(&dist).Count(), make(&local).Count());
  EXPECT_EQ(make(&dist).Distinct().Count(), make(&local).Distinct().Count());
  EXPECT_GT(dist.metrics().remote_shuffle_fetches.load(), 0u);
}

TEST(DistributedModeTest, PageRankMatchesLocalBitExactly) {
  RmatOptions g;
  g.scale = 6;  // 64 vertices
  g.edges_per_vertex = 5;
  const auto edges = GenerateRmat(g);
  PageRankOptions options;
  options.block = 16;
  options.iterations = 8;

  Context local(2, 4);
  Context dist(2, 4, 0, {}, Distributed(2));
  auto want = *PageRank(&local, 64, edges, options);
  auto got = *PageRank(&dist, 64, edges, options);
  ASSERT_EQ(got.ranks.size(), want.ranks.size());
  for (size_t v = 0; v < want.ranks.size(); ++v) {
    EXPECT_EQ(got.ranks[v], want.ranks[v]) << "vertex " << v;
  }
}

TEST(DistributedModeTest, MatmulMatchesLocalBitExactly) {
  auto random_entries = [](uint64_t rows, uint64_t cols, uint64_t seed) {
    Rng rng(seed);
    std::vector<MatrixEntry> entries;
    for (uint64_t r = 0; r < rows; ++r) {
      for (uint64_t c = 0; c < cols; ++c) {
        if (rng.NextBool(0.25)) entries.push_back({r, c, rng.NextDouble(-2, 2)});
      }
    }
    return entries;
  };
  const auto ea = random_entries(24, 20, 11);
  const auto eb = random_entries(20, 16, 12);

  auto multiply = [&](Context* ctx) {
    auto a = *BlockMatrix::FromEntries(ctx, 24, 20, 8, ea);
    auto b = *BlockMatrix::FromEntries(ctx, 20, 16, 8, eb);
    return a.Multiply(b)->ToDense();
  };
  Context local(2, 4);
  Context dist(2, 4, 0, {}, Distributed(2));
  EXPECT_EQ(multiply(&dist), multiply(&local));
}

TEST(DistributedModeTest, TransposeSelfMultiplyMatchesLocalBitExactly) {
  // Fig. 10's MᵀM on super-sparse 64x64 tiles (~41 of 4096 cells): four
  // contraction blocks, so the gather sums several partials per output
  // tile and its summation order must not depend on the data plane.
  Rng rng(13);
  std::vector<MatrixEntry> entries;
  for (uint64_t r = 0; r < 256; ++r) {
    for (uint64_t c = 0; c < 256; ++c) {
      if (rng.NextBool(0.01)) entries.push_back({r, c, rng.NextDouble(-2, 2)});
    }
  }
  auto mtm = [&](Context* ctx) {
    auto m = *BlockMatrix::FromEntries(ctx, 256, 256, 64, entries);
    for (const auto& [id, tile] : m.array().chunks().Collect()) {
      EXPECT_EQ(tile.mode(), ChunkMode::kSuperSparse) << "tile " << id;
    }
    return *m.TransposeSelfMultiply();
  };
  Context local(2, 4);
  Context dist(2, 4, 0, {}, Distributed(2));
  const BlockMatrix want = mtm(&local);
  const AnalyzedPlan plan = want.ExplainAnalyzePlan("count");
  const AnalyzedNode* gather = plan.Find("reduceGroups");
  ASSERT_NE(gather, nullptr) << plan.ToString();
  EXPECT_GT(gather->actuals.rows_out, 0u);
  EXPECT_GE(gather->actuals.rows_in, 3 * gather->actuals.rows_out)
      << "want >= 3 partials per output tile\n" << plan.ToString();
  EXPECT_EQ(mtm(&dist).ToDense(), want.ToDense());
  EXPECT_GT(dist.metrics().remote_shuffle_fetches.load(), 0u);
}

TEST(DistributedChaosTest, ChaosSigkillMidJobRecoversThroughLineage) {
  const int kill_target = static_cast<int>(BaseSeed() % 2);
  SCOPED_TRACE("kill_target=" + std::to_string(kill_target) +
               " (SPANGLE_CHAOS_SEED=" + std::to_string(BaseSeed()) + ")");

  Context local(2, 4);
  const auto want = CountByBucket(&local, 1000, 17);

  Context dist(2, 4, 0, {}, Distributed(2));
  // The first attempt of task 0 of the collect stage SIGKILLs a live
  // daemon: map outputs stored on it are genuinely gone, the collect
  // tasks' fetches raise ShuffleBlockLostError, and the job must re-plan
  // and re-materialize the map stage from lineage. Gating on
  // stage_attempt == 0 guarantees convergence.
  auto policy = std::make_shared<ChaosPolicy>();
  policy->fail_executor = [kill_target](const ChaosTaskInfo& t) -> int {
    if (t.stage != "collect") return -1;
    if (t.task != 0 || t.attempt != 0 || t.stage_attempt != 0) return -1;
    return kill_target;
  };
  dist.set_chaos_policy(policy);

  const pid_t pid_before = dist.fleet()->executor_pid(kill_target);
  const auto got = CountByBucket(&dist, 1000, 17);
  EXPECT_EQ(got, want) << "chaos run must match the fault-free twin";
  EXPECT_GE(dist.metrics().stage_reruns.load(), 1u)
      << "losing a daemon's shuffle shard must force a lineage rerun";
  EXPECT_GE(dist.metrics().executor_restarts.load(), 1u);
  EXPECT_NE(dist.fleet()->executor_pid(kill_target), pid_before)
      << "the killed daemon must be a fresh process";
}

TEST(DistributedChaosTest, ExternalSigkillDetectedOnNextAction) {
  Context dist(2, 4, 0, {}, Distributed(2));
  std::vector<int> data(400);
  for (int i = 0; i < 400; ++i) data[i] = i;
  auto pairs = dist.Parallelize(std::move(data)).Map([](const int& v) {
    return std::pair<int, int>(v % 13, 1);
  });
  auto counts = PairRdd<int, int>(pairs).ReduceByKey(
      [](const int& a, const int& b) { return a + b; });
  const auto first = counts.Collect();

  // Kill a daemon behind the driver's back, the way a real node dies.
  const int kill_target = static_cast<int>(BaseSeed() % 2);
  const pid_t pid = dist.fleet()->executor_pid(kill_target);
  ASSERT_GT(pid, 0);
  ASSERT_EQ(::kill(pid, SIGKILL), 0);

  // The next action's first fetch from the dead daemon fails: the fleet
  // reports the failure and restarts a replacement, the job re-plans, and
  // lineage re-materializes the lost shard.
  const auto second = counts.Collect();
  EXPECT_EQ(second, first);
  EXPECT_GE(dist.metrics().executor_restarts.load(), 1u);
  EXPECT_NE(dist.fleet()->executor_pid(kill_target), pid);
}

TEST(DistributedChaosTest, HeartbeatNoticesSilentDeath) {
  Context dist(2, 4, 0, {},
               Distributed(2, /*heartbeat_interval_ms=*/20,
                           /*heartbeat_miss_limit=*/2));
  const pid_t pid = dist.fleet()->executor_pid(0);
  ASSERT_GT(pid, 0);
  ASSERT_EQ(::kill(pid, SIGKILL), 0);

  // The heartbeat loop probes every 20ms and fails the daemon after 2
  // consecutive misses; give it a generous deadline.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    if (dist.metrics().executor_restarts.load() >= 1 &&
        dist.fleet()->executor_pid(0) != pid &&
        dist.fleet()->executor_pid(0) > 0) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(dist.metrics().heartbeat_misses.load(), 1u);
  EXPECT_GE(dist.metrics().executor_restarts.load(), 1u);
  EXPECT_NE(dist.fleet()->executor_pid(0), pid);

  // The fleet is whole again: jobs run normally on the replacement.
  Context local(2, 4);
  EXPECT_EQ(CountByBucket(&dist, 200, 7), CountByBucket(&local, 200, 7));
}

TEST(DistributedModeTest, ReplannedStageDedupsByContentHash) {
  // Kill daemon 0 mid-job: its shuffle shard is gone, the stage re-plans
  // and re-materializes EVERY partition — but the partitions daemon 1
  // still holds are content-identical, so their re-stores must fold into
  // the existing blocks as counted dedup hits (PutIfAbsent by content
  // hash), not second copies.
  Context local(2, 4);
  const auto want = CountByBucket(&local, 1000, 17);

  Context dist(2, 4, 0, {}, Distributed(2));
  auto policy = std::make_shared<ChaosPolicy>();
  policy->fail_executor = [](const ChaosTaskInfo& t) -> int {
    if (t.stage != "collect") return -1;
    if (t.task != 0 || t.attempt != 0 || t.stage_attempt != 0) return -1;
    return 0;
  };
  dist.set_chaos_policy(policy);
  const auto got = CountByBucket(&dist, 1000, 17);
  EXPECT_EQ(got, want) << "recovery must stay bit-identical to LOCAL";
  EXPECT_GE(dist.metrics().stage_reruns.load(), 1u);
  EXPECT_GT(dist.metrics().shuffle_block_dedup_hits.load(), 0u)
      << "re-stored partitions surviving on daemon 1 must dedup by "
         "content hash";
  // The fault-free twin never stores a partition twice.
  EXPECT_EQ(local.metrics().shuffle_block_dedup_hits.load(), 0u);
}

TEST(DistributedModeTest, RerunOverMaterializedShuffleFetchesOnly) {
  // The driver knows its shuffle is still on the daemons (no daemon was
  // replaced since the stores), so a second action asks no daemon about
  // it: exactly one roundtrip per partition, the fetch.
  Context dist(2, 8, 0, {}, Distributed(2));
  std::vector<int> data(800);
  for (int i = 0; i < 800; ++i) data[i] = i;
  auto pairs = dist.Parallelize(std::move(data)).Map([](const int& v) {
    return std::pair<int, int>(v % 29, 1);
  });
  auto counts = PairRdd<int, int>(pairs).ReduceByKey(
      [](const int& a, const int& b) { return a + b; });
  const auto first = counts.Collect();
  const uint64_t n = static_cast<uint64_t>(counts.num_partitions());
  ASSERT_EQ(n, 8u);

  const uint64_t roundtrips = dist.metrics().rpc_roundtrips.load();
  const uint64_t fetches = dist.metrics().remote_shuffle_fetches.load();
  const uint64_t shuffles = dist.metrics().shuffles.load();
  EXPECT_EQ(counts.Collect(), first);
  EXPECT_EQ(dist.metrics().rpc_roundtrips.load() - roundtrips, n);
  EXPECT_EQ(dist.metrics().remote_shuffle_fetches.load() - fetches, n);
  EXPECT_EQ(dist.metrics().shuffles.load(), shuffles)
      << "the materialized shuffle must be reused, not re-run";
}

TEST(DistributedChaosTest, FailExecutorReplaysOnlyShufflesItOwned) {
  // Partition p lives on daemon p % 2. Replacing daemon 1 between actions
  // loses a shard of the 4-partition shuffle, which must re-materialize;
  // the 1-partition shuffle lives only on daemon 0 and must not.
  Context dist(2, 4, 0, {}, Distributed(2));
  auto make = [&dist](int parts) {
    std::vector<int> data(300);
    for (int i = 0; i < 300; ++i) data[i] = i;
    auto pairs = dist.Parallelize(std::move(data)).Map([](const int& v) {
      return std::pair<int, int>(v % 11, v);
    });
    return PairRdd<int, int>(pairs).ReduceByKey(
        [](const int& a, const int& b) { return a + b; },
        std::make_shared<HashPartitioner<int>>(parts));
  };
  auto wide = make(4);
  auto narrow = make(1);
  const auto wide_first = wide.Collect();
  const auto narrow_first = narrow.Collect();

  const pid_t pid = dist.fleet()->executor_pid(1);
  dist.FailExecutor(1);
  ASSERT_NE(dist.fleet()->executor_pid(1), pid);

  const uint64_t reruns = dist.metrics().stage_reruns.load();
  EXPECT_EQ(wide.Collect(), wide_first);
  EXPECT_EQ(dist.metrics().stage_reruns.load(), reruns + 1)
      << "the shuffle with a partition on the replaced daemon re-runs";
  EXPECT_EQ(narrow.Collect(), narrow_first);
  EXPECT_EQ(dist.metrics().stage_reruns.load(), reruns + 1)
      << "the shuffle held only by the surviving daemon is reused";
}

TEST(DistributedModeTest, RemoteFetchTimeShowsUpInStageStats) {
  Context dist(2, 4, 0, {}, Distributed(2));
  (void)CountByBucket(&dist, 1000, 17);
  EXPECT_GT(dist.metrics().remote_fetch_time_us.load(), 0u);
  // The per-stage breakdown attributes the fetch time to the stage that
  // pulled the shuffle input.
  uint64_t per_stage_total = 0;
  for (const auto& stat : dist.metrics().StageStats()) {
    per_stage_total += stat.remote_fetch_us;
  }
  EXPECT_GT(per_stage_total, 0u);
}

}  // namespace
}  // namespace spangle
