// Decentralized CAMP in a cooperative cache cluster (the paper's Section 6
// future-work direction, a KOSAR-style deployment): four KvsStore nodes,
// each running CAMP over a private memory budget, joined to one
// kvs::CoopCluster — a consistent-hash ring, a replica directory for peer
// fetches and a last-replica guard — and driven in-process through a
// ClusterClient over CoopNodeClients (the same cluster a set of
// cluster-attached KvsServers runs over TCP).
//
// The application is cache-aside: get a key, and on a miss "recompute" it
// (pay its cost) and set it back. The client tallies the cost-miss ratio
// itself: the cost of non-cold misses over the cost of non-cold requests.
//
// The demo walks three acts:
//   1. steady state   - a skewed workload over the cluster; mostly local hits
//   2. scale-out      - a fifth node joins; remapped keys are served by
//                       peer fetches instead of recomputation
//   3. decommission   - that node leaves; last replicas of its pairs park in
//                       the leased guard and reinstate on demand, while
//                       cold ones drain when their lease lapses
//
//   build/examples/cooperative_cache
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "kvs/cluster.h"
#include "kvs/cluster_client.h"
#include "policy/policy_factory.h"
#include "util/clock.h"
#include "util/rng.h"

namespace {

using namespace camp;

constexpr int kRequestsPerAct = 40'000;

/// One act's client-side cost accounting. First requests of a key are
/// cold and do not count, as in the paper's cost-miss ratio.
struct CostTally {
  std::uint64_t noncold_cost = 0;
  std::uint64_t missed_cost = 0;
  std::uint64_t rejected_sets = 0;

  [[nodiscard]] double cost_miss_ratio() const {
    return noncold_cost == 0 ? 0.0
                             : static_cast<double>(missed_cost) /
                                   static_cast<double>(noncold_cost);
  }
};

/// One act of cache-aside traffic: skewed keys, one in three expensive.
void drive(kvs::ClusterClient& router, util::Xoshiro256& rng,
           std::unordered_set<std::string>& seen, CostTally& tally) {
  for (int i = 0; i < kRequestsPerAct; ++i) {
    const double u = rng.uniform();
    const auto id = static_cast<std::uint64_t>(u * u * 4'000);
    std::string key = "item:";
    key += std::to_string(id);
    const std::uint32_t cost = (id % 3 == 0) ? 10'000 : 10;

    kvs::KvsBatch get;
    get.add_get(key);
    const bool hit = router.execute(get)[0].ok;
    if (!seen.insert(key).second) {
      tally.noncold_cost += cost;
      if (!hit) tally.missed_cost += cost;
    }
    if (hit) continue;
    kvs::KvsBatch set;  // recompute, then refill
    set.add_set(key, std::string(256 + id % 512, 'v'), 0, cost);
    if (!router.execute(set)[0].ok) ++tally.rejected_sets;
  }
}

void print_act(const char* act, const kvs::CoopCluster& cluster,
               const kvs::ClusterCounters& before, const CostTally& tally) {
  const kvs::ClusterCounters c = cluster.counters();
  std::printf("%-14s nodes %zu  local %llu  remote %llu  guard %llu  "
              "miss %llu  cost-miss-ratio %.4f\n",
              act, cluster.node_count(),
              static_cast<unsigned long long>(c.local_hits -
                                              before.local_hits),
              static_cast<unsigned long long>(c.remote_hits -
                                              before.remote_hits),
              static_cast<unsigned long long>(c.guard_hits -
                                              before.guard_hits),
              static_cast<unsigned long long>(c.misses - before.misses),
              tally.cost_miss_ratio());
}

}  // namespace

int main() {
  static const util::ManualClock clock;  // no TTLs: a manual clock suffices
  kvs::StoreConfig store_config;
  store_config.shards = 1;
  store_config.engine.slab.slab_size_bytes = 64u << 10;
  store_config.engine.slab.memory_limit_bytes = 384u << 10;  // tight
  const kvs::PolicyFactory camp_policy = [](std::uint64_t capacity) {
    return policy::make_policy("camp", capacity);
  };

  kvs::ClusterConfig cluster_config;
  cluster_config.guard_capacity_bytes =
      store_config.engine.slab.memory_limit_bytes / 4;
  cluster_config.guard_lease_requests = 10'000;

  // Stores are declared before the cluster so they outlive it.
  std::vector<std::unique_ptr<kvs::KvsStore>> stores;
  kvs::CoopCluster cluster(cluster_config);
  std::vector<std::unique_ptr<kvs::CoopNodeClient>> node_clients;
  kvs::ClusterClient router(cluster_config.virtual_nodes,
                            /*parallel=*/false);
  const auto add_node = [&] {
    stores.push_back(
        std::make_unique<kvs::KvsStore>(store_config, camp_policy, clock));
    const kvs::ClusterNodeId id = cluster.join(*stores.back());
    node_clients.push_back(std::make_unique<kvs::CoopNodeClient>(cluster, id));
    router.add_node(id, *node_clients.back());
    return id;
  };
  for (int n = 0; n < 4; ++n) add_node();

  std::printf("cooperative CAMP cluster: 4 nodes x %llu KiB, CAMP p=5 each\n\n",
              static_cast<unsigned long long>(
                  store_config.engine.slab.memory_limit_bytes >> 10));

  util::Xoshiro256 rng(42);
  std::unordered_set<std::string> seen;
  CostTally steady, joined, left;

  kvs::ClusterCounters before = cluster.counters();
  drive(router, rng, seen, steady);
  print_act("steady state", cluster, before, steady);

  const kvs::ClusterNodeId new_node = add_node();
  before = cluster.counters();
  drive(router, rng, seen, joined);
  print_act("after join", cluster, before, joined);
  std::printf("  -> keys remapped to node %u were fetched from peers "
              "(%llu bytes moved),\n     not recomputed at cost 10'000\n",
              new_node,
              static_cast<unsigned long long>(
                  cluster.counters().transfer_bytes - before.transfer_bytes));

  router.remove_node(new_node);
  cluster.leave(new_node);
  before = cluster.counters();
  drive(router, rng, seen, left);
  print_act("after leave", cluster, before, left);
  const kvs::ClusterCounters c = cluster.counters();
  std::printf("  -> %llu last replicas parked in the guard; %llu reinstated "
              "on demand,\n     %llu drained cold (lease lapse or guard "
              "pressure - no immortal cold data)\n",
              static_cast<unsigned long long>(c.guard_parked),
              static_cast<unsigned long long>(c.guard_hits),
              static_cast<unsigned long long>(c.guard_expired +
                                              c.guard_squeezed));

  const std::uint64_t rejected =
      steady.rejected_sets + joined.rejected_sets + left.rejected_sets;
  if (rejected > 0) {
    std::printf("\n%llu refills were rejected by the stores!\n",
                static_cast<unsigned long long>(rejected));
    return 1;
  }
  if (!cluster.check_invariants()) {
    std::printf("\ninvariant violation detected!\n");
    return 1;
  }
  std::printf("\ndirectory, stores and guard verified consistent.\n");
  return 0;
}
