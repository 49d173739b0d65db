#include "sim/parallel_simulator.h"

#include <gtest/gtest.h>

#include <cmath>
#include <unordered_set>

#include "kvs/sharded_cache.h"
#include "kvs/store.h"
#include "policy/policy_factory.h"
#include "sim/simulator.h"
#include "trace/workloads.h"

namespace camp::sim {
namespace {

std::vector<trace::TraceRecord> small_trace(std::uint64_t seed) {
  trace::TraceGenerator gen(trace::bg_default(/*keys=*/2'000,
                                              /*requests=*/40'000, seed));
  return gen.generate();
}

/// Serial CAMP made concurrent the way the store does it: hash-partitioned
/// over the store's default shard count, one lock per shard.
kvs::ShardedCache make_cache(std::uint64_t cap) {
  return kvs::ShardedCache(cap, kvs::StoreConfig{}.shards,
                           policy::make_policy_factory("camp:p=5"));
}

TEST(ParallelReplay, SingleThreadMatchesSerialSimulator) {
  const auto records = small_trace(3);
  auto concurrent = make_cache(200'000);
  const auto result = replay_parallel(concurrent, records, 1);

  auto serial = make_cache(200'000);
  Simulator simulator(serial);
  simulator.run(records);

  // One worker replays in trace order against an identically built cache:
  // totals must agree exactly.
  EXPECT_EQ(result.metrics.requests, simulator.metrics().requests);
  EXPECT_EQ(result.metrics.cold_requests,
            simulator.metrics().cold_requests);
  EXPECT_EQ(result.metrics.hits, simulator.metrics().hits);
  EXPECT_EQ(result.metrics.noncold_misses,
            simulator.metrics().noncold_misses);
  EXPECT_EQ(result.metrics.noncold_cost_missed,
            simulator.metrics().noncold_cost_missed);
}

TEST(ParallelReplay, MultiThreadTotalsAreCoherent) {
  const auto records = small_trace(5);
  auto cache = make_cache(100'000);
  const auto result = replay_parallel(cache, records, 4);

  EXPECT_EQ(result.metrics.requests, records.size());
  EXPECT_EQ(result.per_thread.size(), 4u);
  // Cold accounting is deterministic: exactly one cold request per key.
  std::unordered_set<policy::Key> keys;
  for (const auto& r : records) keys.insert(r.key);
  EXPECT_EQ(result.metrics.cold_requests, keys.size());
  // Interleaving may shift individual hits, but the rates stay in range.
  EXPECT_GT(result.metrics.hits, 0u);
  EXPECT_LE(result.metrics.miss_rate(), 1.0);
  EXPECT_GT(result.wall_seconds, 0.0);
  EXPECT_GT(result.requests_per_second(), 0.0);
  EXPECT_LE(cache.used_bytes(), cache.capacity_bytes());
  const policy::CacheStats stats = cache.stats_snapshot();
  EXPECT_EQ(stats.gets, records.size());
  EXPECT_EQ(stats.hits, result.metrics.hits);
}

TEST(ParallelReplay, MultiThreadRatesTrackSerialRates) {
  // Nondeterministic interleaving must not change aggregate quality much:
  // the 4-thread cost-miss ratio stays within 20% (relative) of serial.
  const auto records = small_trace(7);
  auto mt = make_cache(150'000);
  const auto parallel = replay_parallel(mt, records, 4);

  auto st = make_cache(150'000);
  const auto serial = replay_parallel(st, records, 1);

  const double s = serial.metrics.cost_miss_ratio();
  const double p = parallel.metrics.cost_miss_ratio();
  ASSERT_GT(s, 0.0);
  EXPECT_LT(std::abs(p - s) / s, 0.20)
      << "parallel " << p << " vs serial " << s;
}

TEST(ParallelReplay, ZeroThreadsClampsToOne) {
  const auto records = small_trace(9);
  auto cache = make_cache(100'000);
  const auto result = replay_parallel(cache, records, 0);
  EXPECT_EQ(result.per_thread.size(), 1u);
  EXPECT_EQ(result.metrics.requests, records.size());
}

TEST(ParallelReplay, EmptyTraceIsHarmless) {
  auto cache = make_cache(1'000);
  const auto result = replay_parallel(cache, {}, 4);
  EXPECT_EQ(result.metrics.requests, 0u);
  EXPECT_EQ(result.metrics.miss_rate(), 0.0);
}

}  // namespace
}  // namespace camp::sim
