// In-process tests for the networked cooperative cluster (kvs/cluster.h +
// kvs/cluster_client.h): batch routing and stitching, the four-step coop
// read path (local / peer fetch / guard / miss), membership churn, the
// value-carrying last-replica guard, deterministic counters, and the
// cooperative-caching claims end to end (cooperation vs isolated nodes,
// replication vs guard traffic, guard on vs off, and a one-node cluster
// against the bare store it wraps).
#include "kvs/cluster.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "kvs/cluster_client.h"
#include "kvs/inproc.h"
#include "policy/policy_factory.h"
#include "util/clock.h"
#include "util/rng.h"

namespace camp::kvs {
namespace {

const util::ManualClock& test_clock() {
  static const util::ManualClock clock;
  return clock;
}

PolicyFactory lru_factory() {
  return [](std::uint64_t cap) { return policy::make_policy("lru", cap); };
}

/// One 64 KiB slab per node; ~4 KiB values land in a 4546-byte chunk class,
/// so the policy (85% fill) caps a node at 12 resident pairs — small enough
/// to force evictions on demand.
StoreConfig small_store() {
  StoreConfig config;
  config.shards = 1;
  config.engine.slab.slab_size_bytes = 64u << 10;
  config.engine.slab.memory_limit_bytes = 64u << 10;
  return config;
}

ClusterConfig guarded_config(std::uint64_t guard_bytes = 1u << 20,
                             std::uint64_t lease = 10'000) {
  ClusterConfig config;
  config.guard_capacity_bytes = guard_bytes;
  config.guard_lease_requests = lease;
  return config;
}

std::string value_of(std::size_t bytes, char fill) {
  return std::string(bytes, fill);
}

/// A cluster harness: N stores joined to one CoopCluster, fronted by
/// CoopNodeClients and a sequential ClusterClient. Nodes added later get the
/// same store config and policy factory.
struct Harness {
  explicit Harness(std::size_t nodes,
                   ClusterConfig config = guarded_config(),
                   StoreConfig store_config = small_store(),
                   PolicyFactory factory = lru_factory())
      : store_config(store_config),
        factory(std::move(factory)),
        cluster(config),
        router(config.virtual_nodes, /*parallel=*/false, config.replication) {
    for (std::size_t i = 0; i < nodes; ++i) add_node();
  }

  ClusterNodeId add_node() {
    stores.push_back(
        std::make_unique<KvsStore>(store_config, factory, test_clock()));
    const ClusterNodeId id = cluster.join(*stores.back());
    node_clients.push_back(std::make_unique<CoopNodeClient>(cluster, id));
    router.add_node(id, *node_clients.back());
    ids.push_back(id);
    return id;
  }

  /// The client's cache-aside step: get, and on a miss refill with a set.
  /// Returns whether the get was served.
  bool get_or_refill(const std::string& key, const std::string& value,
                     std::uint32_t cost) {
    if (get(key).hit) return true;
    EXPECT_TRUE(set(key, value, cost)) << "refill rejected for " << key;
    return false;
  }

  bool set(const std::string& key, const std::string& value,
           std::uint32_t cost = 1) {
    KvsBatch batch;
    batch.add_set(key, value, 0, cost);
    return router.execute(batch)[0].ok;
  }

  GetResult get(const std::string& key) {
    KvsBatch batch;
    batch.add_get(key);
    const KvsBatchResult r = router.execute(batch);
    return r[0].to_get_result();
  }

  StoreConfig store_config;
  PolicyFactory factory;
  std::vector<std::unique_ptr<KvsStore>> stores;
  CoopCluster cluster;
  std::vector<std::unique_ptr<CoopNodeClient>> node_clients;
  ClusterClient router;
  std::vector<ClusterNodeId> ids;
};

TEST(ClusterConfigTest, Validates) {
  ClusterConfig bad;
  bad.virtual_nodes = 0;
  EXPECT_THROW(CoopCluster{bad}, std::invalid_argument);
  bad = guarded_config();
  bad.guard_lease_requests = 0;
  EXPECT_THROW(CoopCluster{bad}, std::invalid_argument);
  bad.preserve_last_replica = false;  // lease irrelevant when guard is off
  EXPECT_NO_THROW(CoopCluster{bad});
}

TEST(ClusterClientTest, ThrowsWithoutNodes) {
  ClusterClient router(64, false);
  KvsBatch batch;
  batch.add_get("k");
  EXPECT_THROW((void)router.execute(batch), std::logic_error);
}

TEST(ClusterClientTest, AgreesWithClusterOnPlacement) {
  Harness h(4);
  for (int i = 0; i < 200; ++i) {
    const std::string key = "key" + std::to_string(i);
    EXPECT_EQ(h.router.home_node(key), h.cluster.home_node(key));
  }
}

TEST(ClusterClientTest, StitchesMixedBatchIntoOpOrder) {
  Harness h(4);
  ASSERT_TRUE(h.set("a", "va"));
  ASSERT_TRUE(h.set("b", "vb"));
  KvsBatch batch;
  batch.add_get("a")
      .add_get("missing")
      .add_set("c", "vc", 0, 2)
      .add_get("b")
      .add_del("a")
      .add_get("c");
  const KvsBatchResult r = h.router.execute(batch);
  ASSERT_EQ(r.size(), 6u);
  EXPECT_TRUE(r[0].ok);
  EXPECT_EQ(r[0].value, "va");
  EXPECT_FALSE(r[1].ok);
  EXPECT_TRUE(r[2].ok);
  EXPECT_TRUE(r[3].ok);
  EXPECT_EQ(r[3].value, "vb");
  EXPECT_TRUE(r[4].ok);   // delete of a resident key
  EXPECT_TRUE(r[5].ok);   // the set earlier in the SAME batch is visible
  EXPECT_EQ(r[5].value, "vc");
  EXPECT_FALSE(h.get("a").hit);
  EXPECT_TRUE(h.cluster.check_invariants());
}

TEST(ClusterTest, SetsLandOnTheirHomeNode) {
  Harness h(4);
  for (int i = 0; i < 100; ++i) {
    const std::string key = "key" + std::to_string(i);
    ASSERT_TRUE(h.set(key, "v"));
    const ClusterNodeId home = h.cluster.home_node(key);
    std::size_t holders = 0;
    for (const auto& store : h.stores) holders += store->contains(key);
    EXPECT_EQ(holders, 1u);
    EXPECT_EQ(h.stores[home]->contains(key), true)
        << "key " << key << " not at home node " << home;
  }
  EXPECT_TRUE(h.cluster.check_invariants());
}

TEST(ClusterTest, RemoteHitAfterJoinPromotesToNewHome) {
  Harness h(2);
  // 200-byte values: every key's footprint lands in ONE slab class
  // regardless of key length, so the single-slab store never reassigns.
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(h.set("key" + std::to_string(i), value_of(200, 'v'), 7));
  }
  const ClusterNodeId added = h.add_node();
  // Find keys whose home moved onto the new (empty) node.
  std::vector<std::string> moved;
  for (int i = 0; i < 100; ++i) {
    const std::string key = "key" + std::to_string(i);
    if (h.cluster.home_node(key) == added) moved.push_back(key);
  }
  ASSERT_FALSE(moved.empty());
  const GetResult r = h.get(moved.front());
  EXPECT_TRUE(r.hit);
  EXPECT_EQ(r.value, value_of(200, 'v'));
  const ClusterCounters c = h.cluster.counters();
  EXPECT_EQ(c.remote_hits, 1u);
  EXPECT_EQ(c.promotions, 1u);
  EXPECT_EQ(c.transfer_bytes, 200u);
  // Promotion copied the pair home: the next get is a local hit and the
  // directory tracks both replicas.
  EXPECT_TRUE(h.stores[added]->contains(moved.front()));
  EXPECT_EQ(h.cluster.directory_replica_count(moved.front()), 2u);
  EXPECT_TRUE(h.get(moved.front()).hit);
  EXPECT_EQ(h.cluster.counters().local_hits, 1u);
  EXPECT_TRUE(h.cluster.check_invariants());
}

TEST(ClusterTest, PromotionCanBeDisabled) {
  ClusterConfig config = guarded_config();
  config.promote_on_remote_hit = false;
  Harness h(2, config);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(h.set("key" + std::to_string(i), "v"));
  }
  const ClusterNodeId added = h.add_node();
  for (int i = 0; i < 50; ++i) {
    const std::string key = "key" + std::to_string(i);
    if (h.cluster.home_node(key) != added) continue;
    EXPECT_TRUE(h.get(key).hit);
    EXPECT_FALSE(h.stores[added]->contains(key));
  }
  EXPECT_EQ(h.cluster.counters().promotions, 0u);
  EXPECT_TRUE(h.cluster.check_invariants());
}

TEST(ClusterTest, EvictedLastReplicaParksAndReinstates) {
  // Single node: every eviction drops the cluster's only copy, so the
  // guard must catch it with its value bytes intact.
  Harness h(1);
  const std::string payload = value_of(4000, 'p');
  ASSERT_TRUE(h.set("victim", payload, 9));
  // 12 resident pairs max: 20 more sets evict "victim" (LRU order).
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(h.set("filler" + std::to_string(i), value_of(4000, 'f')));
  }
  ASSERT_FALSE(h.stores[0]->contains("victim"));
  ASSERT_TRUE(h.cluster.guard_contains("victim"));
  ASSERT_GT(h.cluster.counters().guard_parked, 0u);

  const GetResult r = h.get("victim");
  EXPECT_TRUE(r.hit);
  EXPECT_EQ(r.value, payload);
  const ClusterCounters c = h.cluster.counters();
  EXPECT_EQ(c.guard_hits, 1u);
  EXPECT_EQ(c.misses, 0u);
  // Reinstated at the home node, no longer parked.
  EXPECT_TRUE(h.stores[0]->contains("victim"));
  EXPECT_FALSE(h.cluster.guard_contains("victim"));
  // Cost survived the park/reinstate round trip.
  EXPECT_EQ(h.get("victim").flags, 0u);
  EXPECT_TRUE(h.cluster.check_invariants());
}

TEST(ClusterTest, GuardLeaseExpiresColdParkedPairs) {
  ClusterConfig config = guarded_config(1u << 20, /*lease=*/10);
  Harness h(1, config);
  ASSERT_TRUE(h.set("cold", value_of(4000, 'c')));
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(h.set("filler" + std::to_string(i), value_of(4000, 'f')));
  }
  ASSERT_TRUE(h.cluster.guard_contains("cold"));
  // Burn through the lease with unrelated requests.
  for (int i = 0; i < 12; ++i) (void)h.get("filler19");
  EXPECT_FALSE(h.cluster.guard_contains("cold"));
  EXPECT_FALSE(h.get("cold").hit);
  const ClusterCounters c = h.cluster.counters();
  EXPECT_GT(c.guard_expired, 0u);
  EXPECT_EQ(c.guard_hits, 0u);
  EXPECT_TRUE(h.cluster.check_invariants());
}

TEST(ClusterTest, GuardByteBudgetSqueezesOldestFirst) {
  // Guard holds at most two 4546-byte chunks.
  ClusterConfig config = guarded_config(2 * 4546);
  Harness h(1, config);
  ASSERT_TRUE(h.set("old", value_of(4000, 'o')));
  ASSERT_TRUE(h.set("mid", value_of(4000, 'm')));
  ASSERT_TRUE(h.set("new", value_of(4000, 'n')));
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(h.set("filler" + std::to_string(i), value_of(4000, 'f')));
  }
  // All three were parked at some point, but the budget keeps only two —
  // and fillers kept parking, so the earliest entries were squeezed.
  EXPECT_LE(h.cluster.guard_item_count(), 2u);
  EXPECT_LE(h.cluster.guard_used_bytes(), config.guard_capacity_bytes);
  EXPECT_GT(h.cluster.counters().guard_squeezed, 0u);
  EXPECT_TRUE(h.cluster.check_invariants());
}

TEST(ClusterTest, PromotionAndGuardPreserveTtl) {
  // A lease-bound pair must not become immortal by traveling through a
  // peer fetch + promotion or a guard park + reinstatement.
  util::ManualClock clock;
  // Both stores outlive the cluster (its destructor detaches their hooks).
  std::vector<std::unique_ptr<KvsStore>> stores;
  stores.push_back(
      std::make_unique<KvsStore>(small_store(), lru_factory(), clock));
  stores.push_back(
      std::make_unique<KvsStore>(small_store(), lru_factory(), clock));
  CoopCluster cluster(guarded_config());
  const ClusterNodeId a = cluster.join(*stores[0]);
  ASSERT_TRUE(
      cluster.set(a, "leased", value_of(200, 'l'), 0, 5, /*exptime_s=*/60));

  // Join an empty node; pick a key homed there after remapping.
  const ClusterNodeId b = cluster.join(*stores[1]);
  if (cluster.home_node("leased") == b) {
    // Promote via the coop path at the new home.
    const GetResult r = cluster.get(b, "leased");
    ASSERT_TRUE(r.hit);
    EXPECT_GT(r.remaining_ttl_s, 0u);
    EXPECT_LE(r.remaining_ttl_s, 60u);
    // The promoted copy expires too: past the lease, BOTH replicas lapse.
    clock.advance_ns(61ull * 1'000'000'000ull);
    EXPECT_FALSE(cluster.get(b, "leased").hit);
  } else {
    // Key stayed home; still verify the lease is honored end to end.
    clock.advance_ns(61ull * 1'000'000'000ull);
    EXPECT_FALSE(cluster.get(a, "leased").hit);
  }

  // Guard path: evict a leased last replica, reinstate it, and confirm the
  // reinstated copy still expires.
  ASSERT_TRUE(
      cluster.set(a, "parked", value_of(4000, 'p'), 0, 5, /*exptime_s=*/60));
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(cluster.set(a, "filler" + std::to_string(i),
                            value_of(4000, 'f'), 0, 1));
  }
  if (cluster.guard_contains("parked")) {
    const ClusterNodeId home = cluster.home_node("parked");
    const GetResult r = cluster.get(home, "parked");
    ASSERT_TRUE(r.hit);
    EXPECT_GT(r.remaining_ttl_s, 0u);
    clock.advance_ns(61ull * 1'000'000'000ull);
    EXPECT_FALSE(cluster.get(home, "parked").hit);
  }
}

TEST(ClusterTest, DeleteFansOutToEveryReplicaAndTheGuard) {
  Harness h(2);
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(h.set("key" + std::to_string(i), "v"));
  }
  const ClusterNodeId added = h.add_node();
  // Promote one moved key so it has two replicas.
  std::string moved;
  for (int i = 0; i < 60; ++i) {
    const std::string key = "key" + std::to_string(i);
    if (h.cluster.home_node(key) == added) {
      moved = key;
      break;
    }
  }
  ASSERT_FALSE(moved.empty());
  ASSERT_TRUE(h.get(moved).hit);
  ASSERT_EQ(h.cluster.directory_replica_count(moved), 2u);

  KvsBatch batch;
  batch.add_del(moved);
  EXPECT_TRUE(h.router.execute(batch)[0].ok);
  EXPECT_EQ(h.cluster.directory_replica_count(moved), 0u);
  for (const auto& store : h.stores) EXPECT_FALSE(store->contains(moved));
  EXPECT_FALSE(h.get(moved).hit);
  EXPECT_TRUE(h.cluster.check_invariants());
}

TEST(ClusterTest, DecommissionDrainsLastReplicasIntoTheGuard) {
  Harness h(3);
  for (int i = 0; i < 90; ++i) {
    ASSERT_TRUE(h.set("key" + std::to_string(i), value_of(200, 'v'), 5));
  }
  const ClusterNodeId victim = h.ids.front();
  std::vector<std::string> on_victim;
  for (int i = 0; i < 90; ++i) {
    const std::string key = "key" + std::to_string(i);
    if (h.cluster.home_node(key) == victim) on_victim.push_back(key);
  }
  ASSERT_FALSE(on_victim.empty());

  const std::uint64_t parked_before = h.cluster.counters().guard_parked;
  h.router.remove_node(victim);
  h.cluster.leave(victim);

  EXPECT_EQ(h.cluster.node_count(), 2u);
  // Guard intake matches the orphan set exactly — no phantom parks.
  EXPECT_EQ(h.cluster.counters().guard_parked - parked_before,
            on_victim.size());
  EXPECT_EQ(h.stores[0]->aggregated_stats().items, 0u)  // flushed
      << "decommissioned store still holds pairs";
  for (const std::string& key : on_victim) {
    EXPECT_TRUE(h.cluster.guard_contains(key))
        << "last replica of " << key << " vanished in the decommission";
    EXPECT_EQ(h.cluster.directory_replica_count(key), 0u);
  }
  EXPECT_TRUE(h.cluster.check_invariants());

  // Drained pairs are servable: the guard reinstates them at their new
  // home without a recompute.
  const GetResult r = h.get(on_victim.front());
  EXPECT_TRUE(r.hit);
  EXPECT_EQ(r.value, value_of(200, 'v'));
  EXPECT_EQ(h.cluster.counters().guard_hits, 1u);
  EXPECT_EQ(h.cluster.counters().misses, 0u);
  EXPECT_TRUE(h.cluster.check_invariants());
}

TEST(ClusterTest, FlushNodeDropsGuardEntriesHomedThere) {
  // Regression: flush_all on a cluster-attached node wiped the store and
  // directory but left parked last-replica guard entries behind — a
  // post-flush get then served pre-flush bytes straight out of the guard.
  Harness h(1);
  ASSERT_TRUE(h.set("victim", value_of(4000, 'p'), 9));
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(h.set("filler" + std::to_string(i), value_of(4000, 'f')));
  }
  ASSERT_TRUE(h.cluster.guard_contains("victim"));

  h.cluster.flush_node(h.ids[0]);
  EXPECT_FALSE(h.cluster.guard_contains("victim"))
      << "flush left a pre-flush value parked in the guard";
  EXPECT_EQ(h.cluster.guard_item_count(), 0u);  // single node homes all keys
  const GetResult r = h.get("victim");
  EXPECT_FALSE(r.hit) << "flushed pair served from the guard";
  EXPECT_EQ(h.cluster.counters().guard_hits, 0u);
  EXPECT_TRUE(h.cluster.check_invariants());
}

TEST(ClusterTest, FlushNodeKeepsGuardEntriesHomedElsewhere) {
  // Flushing one node is that node's wipe, not the cluster's: parked last
  // replicas of keys homed at OTHER nodes must keep serving.
  Harness h(2);
  // Park one key per node by filling each home with same-homed keys.
  std::vector<std::string> victims(2);
  for (std::size_t node = 0; node < 2; ++node) {
    int placed = 0;
    for (int i = 0; placed < 21 && i < 10'000; ++i) {
      const std::string key =
          "n" + std::to_string(node) + "k" + std::to_string(i);
      if (h.cluster.home_node(key) != h.ids[node]) continue;
      ASSERT_TRUE(h.set(key, value_of(4000, 'v'), 5));
      if (placed == 0) victims[node] = key;
      ++placed;
    }
    ASSERT_TRUE(h.cluster.guard_contains(victims[node]))
        << "filling node " << node << " never parked its first key";
  }

  h.cluster.flush_node(h.ids[0]);
  EXPECT_FALSE(h.cluster.guard_contains(victims[0]));
  EXPECT_TRUE(h.cluster.guard_contains(victims[1]))
      << "flushing node 0 dropped a guard entry homed at node 1";
  EXPECT_FALSE(h.get(victims[0]).hit);
  const GetResult r = h.get(victims[1]);
  EXPECT_TRUE(r.hit);
  EXPECT_EQ(r.value, value_of(4000, 'v'));
  EXPECT_EQ(h.cluster.counters().guard_hits, 1u);
  EXPECT_TRUE(h.cluster.check_invariants());
}

TEST(ClusterTest, LeaveRejectsUnknownAndFinalNode) {
  Harness h(2);
  EXPECT_THROW(h.cluster.leave(99), std::invalid_argument);
  h.cluster.leave(h.ids[0]);
  EXPECT_THROW(h.cluster.leave(h.ids[1]), std::invalid_argument);
}

TEST(ClusterTest, JoinRegistersPreSeededResidents) {
  Harness h(1);
  // Seed a store OUTSIDE the cluster, then join it: its residents must be
  // peer-fetchable immediately.
  auto seeded = std::make_unique<KvsStore>(small_store(), lru_factory(),
                                           test_clock());
  ASSERT_TRUE(seeded->set("warm", "bytes", 0, 3));
  h.stores.push_back(std::move(seeded));
  const ClusterNodeId id = h.cluster.join(*h.stores.back());
  h.node_clients.push_back(
      std::make_unique<CoopNodeClient>(h.cluster, id));
  h.router.add_node(id, *h.node_clients.back());
  EXPECT_EQ(h.cluster.directory_replica_count("warm"), 1u);
  const GetResult r = h.get("warm");
  EXPECT_TRUE(r.hit);
  EXPECT_EQ(r.value, "bytes");
  EXPECT_TRUE(h.cluster.check_invariants());
}

TEST(ClusterTest, CountersAreDeterministicAcrossRuns) {
  const auto run = [] {
    Harness h(3);
    for (int i = 0; i < 400; ++i) {
      const std::string key = "key" + std::to_string(i % 60);
      KvsBatch batch;
      batch.add_get(key);
      if (!h.router.execute(batch)[0].ok) {
        EXPECT_TRUE(h.set(key, value_of(3000, 'v'), 1 + i % 9));
      }
      if (i == 150) h.add_node();
      if (i == 300) {
        h.router.remove_node(h.ids[1]);
        h.cluster.leave(h.ids[1]);
      }
    }
    EXPECT_TRUE(h.cluster.check_invariants());
    const ClusterCounters c = h.cluster.counters();
    return std::vector<std::uint64_t>{
        c.requests,     c.local_hits,   c.remote_hits,    c.guard_hits,
        c.misses,       c.cold_misses,  c.transfer_bytes, c.promotions,
        c.guard_parked, c.guard_expired, c.guard_squeezed, c.sets};
  };
  EXPECT_EQ(run(), run());
}

TEST(ClusterTest, FourStepsAccountEveryRequest) {
  Harness h(4);
  for (int i = 0; i < 500; ++i) {
    const std::string key = "key" + std::to_string(i % 80);
    if (!h.get(key).hit) {
      ASSERT_TRUE(h.set(key, value_of(2500, 'v')));
    }
    if (i == 250) h.add_node();
  }
  const ClusterCounters c = h.cluster.counters();
  EXPECT_EQ(c.requests, c.local_hits + c.remote_hits + c.guard_hits +
                            c.misses + c.cold_misses);
  EXPECT_TRUE(h.cluster.check_invariants());
}

// ---------------------------------------------------------------------------
// Cooperative-caching claims (paper Section 6), end to end
// ---------------------------------------------------------------------------

/// Room for every key the claims below touch: nothing evicts, so only
/// membership changes move pairs around.
StoreConfig roomy_store() {
  StoreConfig config = small_store();
  config.engine.slab.memory_limit_bytes = 1u << 20;
  return config;
}

PolicyFactory spec_factory(std::string spec) {
  return [spec = std::move(spec)](std::uint64_t cap) {
    return policy::make_policy(spec, cap);
  };
}

std::string numbered(const char* prefix, std::uint64_t n) {
  std::string key = prefix;
  key += std::to_string(n);
  return key;
}

TEST(ClusterTest, FirstRequestIsAColdMissThenALocalHit) {
  Harness h(4);
  EXPECT_FALSE(h.get_or_refill("k", "v", 50));
  EXPECT_TRUE(h.get_or_refill("k", "v", 50));
  const ClusterCounters c = h.cluster.counters();
  EXPECT_EQ(c.requests, 2u);
  EXPECT_EQ(c.cold_misses, 1u);
  EXPECT_EQ(c.local_hits, 1u);
  EXPECT_EQ(c.misses, 0u);
  EXPECT_TRUE(h.cluster.check_invariants());
}

TEST(ClusterTest, CooperationBeatsIsolatedNodesOnCost) {
  // The cooperative win: after a join remaps a slice of the keyspace, the
  // cluster serves every moved key by a peer fetch, while isolated nodes
  // (the same stores behind the same consistent-hash router, with no
  // cluster between them) recompute each one at full cost. The client
  // tallies the cost-miss ratio over the post-join pass.
  constexpr int kKeys = 400;
  constexpr std::uint32_t kCost = 10'000;
  const std::string value = value_of(100, 'v');
  const auto post_join_cost_miss = [&](KvsApi& router,
                                       const std::function<void()>& join) {
    const auto pass = [&] {
      std::uint64_t missed = 0;
      for (int k = 0; k < kKeys; ++k) {
        const std::string key = numbered("key", k);
        KvsBatch get;
        get.add_get(key);
        if (router.execute(get)[0].ok) continue;
        missed += kCost;
        KvsBatch set;
        set.add_set(key, value, 0, kCost);
        EXPECT_TRUE(router.execute(set)[0].ok);
      }
      return missed;
    };
    (void)pass();  // warm-up: every request is cold
    join();
    return static_cast<double>(pass()) /
           (static_cast<double>(kKeys) * kCost);
  };

  Harness coop(2, guarded_config(), roomy_store());
  const double coop_ratio =
      post_join_cost_miss(coop.router, [&] { (void)coop.add_node(); });

  std::vector<std::unique_ptr<KvsStore>> stores;
  std::vector<std::unique_ptr<InprocClient>> transports;
  ClusterClient isolated(64, /*parallel=*/false);
  const auto add_isolated = [&] {
    stores.push_back(std::make_unique<KvsStore>(roomy_store(), lru_factory(),
                                                test_clock()));
    transports.push_back(std::make_unique<InprocClient>(*stores.back()));
    isolated.add_node(static_cast<ClusterNodeId>(stores.size() - 1),
                      *transports.back());
  };
  add_isolated();
  add_isolated();
  const double isolated_ratio = post_join_cost_miss(isolated, add_isolated);

  ASSERT_GT(coop.cluster.counters().remote_hits, 0u)
      << "no keys moved; vacuous test";
  EXPECT_EQ(coop_ratio, 0.0) << "a moved key was recomputed in the cluster";
  EXPECT_GT(isolated_ratio, coop_ratio);
  EXPECT_TRUE(coop.cluster.check_invariants());
}

TEST(ClusterTest, RandomizedChurnKeepsInvariants) {
  // Join, crash, heal and decommission under random cache-aside traffic
  // (R = 2, a small guard with a short lease, stores under pressure); the
  // directory, stores and guard must agree after every step.
  ClusterConfig config = guarded_config(64u << 10, /*lease=*/2'000);
  config.replication = 2;
  StoreConfig store_config = small_store();
  store_config.engine.slab.memory_limit_bytes = 4 * (64u << 10);
  Harness h(4, config, store_config);
  util::Xoshiro256 rng(23);
  const auto traffic = [&](int requests) {
    for (int i = 0; i < requests; ++i) {
      const std::uint64_t k = rng.below(800);
      (void)h.get_or_refill(numbered("key", k),
                            value_of(16 + (k * 7) % 600, 'v'),
                            1 + static_cast<std::uint32_t>(rng.below(10'000)));
    }
  };
  for (int round = 0; round < 3; ++round) {
    traffic(10'000);
    ASSERT_TRUE(h.cluster.check_invariants()) << "round " << round;
  }
  (void)h.add_node();
  traffic(5'000);
  ASSERT_TRUE(h.cluster.check_invariants()) << "after join";

  const ClusterNodeId victim = h.ids[1];
  h.router.remove_node(victim);
  h.cluster.kill_node(victim);
  traffic(5'000);
  ASSERT_TRUE(h.cluster.check_invariants()) << "after kill";
  ASSERT_GT(h.cluster.counters().repair.hints_queued, 0u);

  h.cluster.heal_node(victim);
  h.router.add_node(victim, *h.node_clients[1]);
  (void)h.cluster.repair_tick();
  traffic(5'000);
  ASSERT_TRUE(h.cluster.check_invariants()) << "after heal";

  h.router.remove_node(h.ids[0]);
  h.cluster.leave(h.ids[0]);
  traffic(5'000);
  EXPECT_TRUE(h.cluster.check_invariants()) << "after leave";
  const ClusterCounters c = h.cluster.counters();
  EXPECT_EQ(c.local_hits + c.remote_hits + c.guard_hits + c.misses +
                c.cold_misses,
            c.requests);
}

TEST(ClusterTest, ReplicationReducesGuardTraffic) {
  // Doubly-replicated pairs only park when BOTH copies are gone, so a
  // decommission sends the guard strictly less traffic at R = 2 than at
  // R = 1.
  const auto guard_parks = [](std::uint32_t replication) {
    ClusterConfig config = guarded_config();
    config.replication = replication;
    Harness h(4, config, roomy_store());
    const auto traffic = [&h](std::uint64_t seed, int requests) {
      util::Xoshiro256 rng(seed);
      for (int i = 0; i < requests; ++i) {
        (void)h.get_or_refill(numbered("key", rng.below(300)),
                              value_of(100, 'v'), 100);
      }
    };
    traffic(9, 10'000);
    h.router.remove_node(h.ids[0]);
    h.cluster.leave(h.ids[0]);
    traffic(10, 5'000);
    EXPECT_TRUE(h.cluster.check_invariants());
    return h.cluster.counters().guard_parked;
  };
  const std::uint64_t r1 = guard_parks(1);
  const std::uint64_t r2 = guard_parks(2);
  EXPECT_GT(r1, 0u) << "the decommission parked nothing; vacuous test";
  EXPECT_LT(r2, r1);
}

TEST(ClusterTest, PerNodePolicyIsConfigurable) {
  // Each node's eviction policy comes from its own store, so one cluster
  // can mix policies; a bad spec fails when that node's store is built.
  Harness h(1, guarded_config(), roomy_store(), spec_factory("lru"));
  h.factory = spec_factory("camp");
  (void)h.add_node();
  EXPECT_EQ(h.stores[0]->policy_name(), "lru");
  EXPECT_EQ(h.stores[1]->policy_name().rfind("camp", 0), 0u);
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(h.set(numbered("key", i), "v"));
  for (const auto& store : h.stores) {
    EXPECT_GT(store->aggregated_policy_stats().puts, 0u)
        << store->policy_name() << " node took no writes";
  }
  EXPECT_TRUE(h.cluster.check_invariants());
  EXPECT_THROW(KvsStore(small_store(), spec_factory("no-such-policy"),
                        test_clock()),
               std::invalid_argument);
}

TEST(ClusterTest, GuardOnlyConvertsMissesIntoGuardHits) {
  // Guard on vs off over the same two-phase trace. A guard hit reinstates
  // the pair through the same store put the client's refill would have
  // made, so the nodes hold exactly the same pairs either way: the guard
  // only turns misses into guard hits. And it drains: once the workload
  // shifts to a disjoint key range, every parked phase-1 pair lapses.
  struct Outcome {
    ClusterCounters counters;
    std::uint64_t missed_cost = 0;
    std::size_t phase1_parked = 0;  // phase-1 keys still in the guard
  };
  const auto run = [](bool guard_on) {
    ClusterConfig config = guarded_config(4u << 20, /*lease=*/500);
    config.preserve_last_replica = guard_on;
    Harness h(1, config, small_store(), spec_factory("camp"));
    Outcome out;
    util::Xoshiro256 rng(77);
    for (const char* phase : {"a", "b"}) {
      for (int i = 0; i < 10'000; ++i) {
        // A hot core plus a long tail, disjoint between the phases.
        const std::uint64_t k =
            rng.below(10) < 7 ? rng.below(20) : rng.below(300);
        const auto cost = static_cast<std::uint32_t>(1 + (k * 37) % 1'000);
        if (!h.get_or_refill(numbered(phase, k), value_of(2500, 'v'), cost)) {
          out.missed_cost += cost;
        }
      }
    }
    for (std::uint64_t k = 0; k < 300; ++k) {
      out.phase1_parked += h.cluster.guard_contains(numbered("a", k));
    }
    EXPECT_TRUE(h.cluster.check_invariants());
    out.counters = h.cluster.counters();
    return out;
  };
  const Outcome off = run(false);
  const Outcome on = run(true);

  EXPECT_EQ(off.counters.guard_parked, 0u) << "a disabled guard parked";
  EXPECT_EQ(off.counters.guard_hits, 0u);
  ASSERT_GT(on.counters.guard_hits, 0u) << "guard never fired; weak scenario";
  EXPECT_EQ(on.counters.local_hits, off.counters.local_hits)
      << "the guard changed what the node holds";
  EXPECT_EQ(on.counters.cold_misses, off.counters.cold_misses);
  EXPECT_EQ(on.counters.misses + on.counters.guard_hits, off.counters.misses);
  EXPECT_LT(on.missed_cost, off.missed_cost);
  EXPECT_GT(on.counters.guard_expired, 0u);
  EXPECT_EQ(on.phase1_parked, 0u) << "cold phase-1 pairs outlived the lease";
}

class SingleNodeEquivalence : public ::testing::TestWithParam<std::string> {};

TEST_P(SingleNodeEquivalence, AnswersEveryGetLikeTheBareStore) {
  // A one-node cluster with the guard off adds nothing to the store it
  // wraps: every get is answered exactly as the bare store answers it, and
  // both end holding the same pairs.
  StoreConfig store_config = small_store();
  store_config.engine.slab.slab_size_bytes = 8u << 10;
  store_config.engine.slab.memory_limit_bytes = 32u << 10;
  ClusterConfig config;
  config.preserve_last_replica = false;
  Harness h(1, config, store_config, spec_factory(GetParam()));
  KvsStore bare(store_config, spec_factory(GetParam()), test_clock());

  std::unordered_set<std::string> seen;
  std::uint64_t cold = 0, misses = 0;
  util::Xoshiro256 rng(31);
  for (int i = 0; i < 30'000; ++i) {
    const std::uint64_t k = rng.below(300);
    const std::string key = numbered("key", k);
    const std::string value = value_of(100 + k % 100, 'v');
    const auto cost = static_cast<std::uint32_t>(1 + rng.below(10'000));

    const bool bare_hit = bare.get(key).hit;
    const bool bare_refilled = bare_hit || bare.set(key, value, 0, cost);
    if (!seen.insert(key).second) {
      misses += !bare_hit;
    } else {
      ++cold;
    }
    const bool cluster_hit = h.get(key).hit;
    const bool cluster_refilled = cluster_hit || h.set(key, value, cost);
    ASSERT_EQ(bare_hit, cluster_hit) << "diverged at op " << i;
    ASSERT_EQ(bare_refilled, cluster_refilled) << "refill diverged at op "
                                               << i;
  }

  const ClusterCounters c = h.cluster.counters();
  EXPECT_EQ(c.cold_misses, cold);
  EXPECT_EQ(c.misses, misses);
  EXPECT_EQ(c.remote_hits, 0u);
  EXPECT_EQ(c.guard_hits, 0u);
  EXPECT_EQ(h.cluster.guard_item_count(), 0u);
  const EngineStats node = h.stores[0]->aggregated_stats();
  const EngineStats plain = bare.aggregated_stats();
  EXPECT_EQ(node.items, plain.items);
  EXPECT_EQ(node.stored_bytes, plain.stored_bytes);
  EXPECT_EQ(node.slab_reassignments, plain.slab_reassignments);
  EXPECT_EQ(h.stores[0]->aggregated_policy_stats().evictions,
            bare.aggregated_policy_stats().evictions);
  EXPECT_GT(bare.aggregated_policy_stats().evictions, 0u)
      << "nothing evicted; weak scenario";
  EXPECT_TRUE(h.cluster.check_invariants());
}

INSTANTIATE_TEST_SUITE_P(Policies, SingleNodeEquivalence,
                         ::testing::Values("lru", "camp", "gds:lru", "gdsf"),
                         [](const ::testing::TestParamInfo<std::string>& i) {
                           std::string name = i.param;
                           for (char& c : name) {
                             if (c == ':') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace camp::kvs
