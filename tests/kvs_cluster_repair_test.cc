// Anti-entropy repair for the replicated cluster (kvs/repair.h +
// CoopCluster churn): hint-queue semantics, the sloppy-write and
// key-repair planners, the RepairDriver thread, and the full
// kill -> sloppy writes + hints -> sweep -> heal + replay cycle, including
// read repair on the failover path and the bounded-sweep cursor.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "kvs/cluster.h"
#include "kvs/cluster_client.h"
#include "kvs/repair.h"
#include "policy/policy_factory.h"
#include "util/clock.h"

namespace camp::kvs {
namespace {

const util::ManualClock& test_clock() {
  static const util::ManualClock clock;
  return clock;
}

PolicyFactory lru_factory() {
  return [](std::uint64_t cap) { return policy::make_policy("lru", cap); };
}

StoreConfig roomy_store(std::uint64_t limit = 1u << 20) {
  StoreConfig config;
  config.shards = 1;
  config.engine.slab.slab_size_bytes = 64u << 10;
  config.engine.slab.memory_limit_bytes = limit;
  return config;
}

ClusterConfig repair_config(std::uint32_t replication = 2) {
  ClusterConfig config;
  config.replication = replication;
  config.write_ack = WriteAckPolicy::kAckHome;
  config.guard_capacity_bytes = 256u << 10;
  config.guard_lease_requests = 100'000;
  return config;
}

/// Built without the fused `"key" + to_string` temporary, which trips GCC
/// 12's bogus -Wrestrict at -O2 (same workaround as figures/registry.cc).
std::string key_name(int i) {
  std::string out = "key";
  out += std::to_string(i);
  return out;
}

/// N stores joined to one CoopCluster; tests drive the cluster API
/// directly (as the routed servers would) so churn stays deterministic.
struct RepairHarness {
  explicit RepairHarness(std::size_t nodes, ClusterConfig config)
      : cluster(config) {
    for (std::size_t i = 0; i < nodes; ++i) {
      stores.push_back(std::make_unique<KvsStore>(roomy_store(),
                                                  lru_factory(),
                                                  test_clock()));
      ids.push_back(cluster.join(*stores.back()));
    }
  }

  /// First live node in `key`'s ring preference order — where a routed
  /// client's write lands once its preferred transports are down.
  ClusterNodeId live_coordinator(const std::string& key) const {
    for (const ClusterNodeId id : cluster.replica_nodes(key)) {
      if (cluster.node_live(id)) return id;
    }
    for (const ClusterNodeId id : ids) {
      if (cluster.node_live(id)) return id;
    }
    throw std::runtime_error("no live node");
  }

  bool set(const std::string& key, const std::string& value,
           std::uint32_t cost = 1) {
    return cluster.set(live_coordinator(key), key, value, 0, cost);
  }

  std::vector<std::unique_ptr<KvsStore>> stores;
  CoopCluster cluster;
  std::vector<ClusterNodeId> ids;
};

// ---------------------------------------------------------------------------
// HintQueue
// ---------------------------------------------------------------------------

TEST(HintQueue, QueuesDedupsAndDrainsFifo) {
  HintQueue q;
  q.set_budget(1u << 10);
  RepairCounters c;
  q.push(1, "a", 40, c);
  q.push(1, "b", 40, c);
  q.push(2, "a", 40, c);
  q.push(1, "a", 40, c);  // duplicate (target, key): silent no-op
  EXPECT_EQ(c.hints_queued, 3u);
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.used_bytes(), 120u);
  EXPECT_TRUE(q.contains(1, "a"));
  EXPECT_FALSE(q.contains(3, "a"));

  const std::vector<std::string> drained = q.drain(1);
  ASSERT_EQ(drained.size(), 2u);
  EXPECT_EQ(drained[0], "a");  // oldest first
  EXPECT_EQ(drained[1], "b");
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.used_bytes(), 40u);
  EXPECT_TRUE(q.drain(1).empty());
  // A drained hint can be queued again.
  q.push(1, "a", 40, c);
  EXPECT_EQ(c.hints_queued, 4u);
}

TEST(HintQueue, BudgetSqueezesOldestAndDropsOversize) {
  HintQueue q;
  q.set_budget(100);
  RepairCounters c;
  q.push(1, "a", 40, c);
  q.push(1, "b", 40, c);  // 80/100 used
  q.push(1, "d", 40, c);  // squeezes "a" out
  EXPECT_EQ(c.hints_dropped, 1u);
  EXPECT_FALSE(q.contains(1, "a"));
  EXPECT_TRUE(q.contains(1, "b"));
  EXPECT_TRUE(q.contains(1, "d"));

  q.push(1, "huge", 101, c);  // can never fit: dropped outright
  EXPECT_EQ(c.hints_dropped, 2u);
  EXPECT_EQ(q.size(), 2u);

  HintQueue off;  // budget 0 = hinted handoff disabled
  off.push(1, "a", 10, c);
  EXPECT_EQ(c.hints_dropped, 3u);
  EXPECT_EQ(off.size(), 0u);
}

TEST(HintQueue, EraseKeyAndEraseTarget) {
  HintQueue q;
  q.set_budget(1u << 10);
  RepairCounters c;
  q.push(1, "k7", 40, c);
  q.push(2, "k7", 40, c);
  q.push(1, "k8", 40, c);
  EXPECT_EQ(q.erase_key("k7"), 2u);  // cluster-wide delete cancels both
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.erase_target(1), 1u);  // decommission cancels the rest
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.used_bytes(), 0u);
}

// ---------------------------------------------------------------------------
// Planners
// ---------------------------------------------------------------------------

TEST(RepairPlanners, SloppyWriteMatchesStrictListWhenAllLive) {
  const std::vector<std::uint32_t> ring{3, 1, 2, 0};
  const auto plan =
      plan_sloppy_write(ring, 2, [](std::uint32_t) { return true; });
  EXPECT_EQ(plan.targets, (std::vector<std::uint32_t>{3, 1}));
  EXPECT_TRUE(plan.hinted.empty());
}

TEST(RepairPlanners, SloppyWriteSlidesPastDeadPreferredNodes) {
  const std::vector<std::uint32_t> ring{3, 1, 2, 0};
  // Home (3) is dead: the write slides to the next live nodes and hints 3.
  const auto plan =
      plan_sloppy_write(ring, 2, [](std::uint32_t id) { return id != 3; });
  EXPECT_EQ(plan.targets, (std::vector<std::uint32_t>{1, 2}));
  EXPECT_EQ(plan.hinted, (std::vector<std::uint32_t>{3}));
  // Both preferred nodes dead: both hinted, quorum from the tail.
  const auto worse = plan_sloppy_write(
      ring, 2, [](std::uint32_t id) { return id != 3 && id != 1; });
  EXPECT_EQ(worse.targets, (std::vector<std::uint32_t>{2, 0}));
  EXPECT_EQ(worse.hinted, (std::vector<std::uint32_t>{3, 1}));
  // Fewer live nodes than R: the plan is every live node.
  const auto degraded =
      plan_sloppy_write(ring, 3, [](std::uint32_t id) { return id == 2; });
  EXPECT_EQ(degraded.targets, (std::vector<std::uint32_t>{2}));
}

TEST(RepairPlanners, KeyRepairTargetsSkipHoldersAndDeadNodes) {
  const std::vector<std::uint32_t> ring{3, 1, 2, 0};
  // Key held live only at 2; want 2 copies; node 3 is dead.
  const auto targets = plan_key_repair_targets(
      ring, /*want=*/2, /*live_copies=*/1,
      [](std::uint32_t id) { return id != 3; },
      [](std::uint32_t id) { return id == 2; });
  EXPECT_EQ(targets, (std::vector<std::uint32_t>{1}));
  // Already at target replication: nothing to do.
  EXPECT_TRUE(plan_key_repair_targets(
                  ring, 2, 2, [](std::uint32_t) { return true; },
                  [](std::uint32_t) { return false; })
                  .empty());
}

// ---------------------------------------------------------------------------
// RepairDriver
// ---------------------------------------------------------------------------

TEST(RepairDriver, FiresTicksUntilStopped) {
  std::atomic<int> ticks{0};
  RepairDriver driver([&ticks] { ticks.fetch_add(1); },
                      std::chrono::milliseconds(2));
  while (ticks.load() < 3) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  driver.stop();
  const int after_stop = ticks.load();
  EXPECT_EQ(driver.ticks_fired(), static_cast<std::uint64_t>(after_stop));
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(ticks.load(), after_stop) << "a tick fired after stop()";
  driver.stop();  // idempotent
}

// ---------------------------------------------------------------------------
// Kill / sloppy writes / hints
// ---------------------------------------------------------------------------

TEST(ClusterChurn, KillLosesDataWithoutGuardParks) {
  RepairHarness h(3, repair_config(2));
  constexpr int kKeys = 60;
  for (int i = 0; i < kKeys; ++i) ASSERT_TRUE(h.set(key_name(i), "v"));

  const ClusterNodeId victim = h.ids[1];
  h.cluster.kill_node(victim);
  h.cluster.kill_node(victim);  // idempotent
  EXPECT_FALSE(h.cluster.node_live(victim));
  EXPECT_EQ(h.stores[victim]->aggregated_stats().items, 0u)
      << "a crash must wipe the store";
  // A crash preserves NOTHING: no guard parks, no stale-drop accounting.
  const ClusterCounters c = h.cluster.counters();
  EXPECT_EQ(c.guard_parked, 0u);
  EXPECT_EQ(c.stale_directory_drops, 0u);
  // Serving as the dead node throws instead of reading the flushed store.
  EXPECT_THROW((void)h.cluster.get(victim, key_name(0)), std::runtime_error);
  EXPECT_THROW((void)h.cluster.set(victim, "k", "v", 0, 1),
               std::runtime_error);
  // The node stays on the ring: homes did not move.
  EXPECT_EQ(h.cluster.node_count(), 3u);
  EXPECT_TRUE(h.cluster.check_invariants());
}

TEST(ClusterChurn, WritesSlideAroundDeadNodeAndQueueHints) {
  RepairHarness h(3, repair_config(2));
  const ClusterNodeId victim = h.ids[0];
  h.cluster.kill_node(victim);

  constexpr int kKeys = 90;
  std::size_t displaced = 0;
  for (int i = 0; i < kKeys; ++i) {
    const std::string key = key_name(i);
    ASSERT_TRUE(h.set(key, "v"));
    const auto preferred = h.cluster.replica_nodes(key);
    const bool prefers_victim =
        std::find(preferred.begin(), preferred.end(), victim) !=
        preferred.end();
    if (prefers_victim) ++displaced;
    // Every write still lands R live copies; none on the dead node.
    EXPECT_EQ(h.cluster.directory_replica_count(key), 2u) << key;
    EXPECT_FALSE(h.stores[victim]->contains(key));
  }
  ASSERT_GT(displaced, 0u) << "no key preferred the dead node?";
  const ClusterCounters c = h.cluster.counters();
  // One hint per DISPLACED key; re-writing the same key dedups.
  EXPECT_EQ(c.repair.hints_queued, displaced);
  ASSERT_TRUE(h.set(key_name(0), "v2"));
  EXPECT_EQ(h.cluster.counters().repair.hints_queued, displaced);
  EXPECT_EQ(h.cluster.hint_count(), displaced);
  // Nothing is under-replicated: the sloppy quorum kept every key at R.
  EXPECT_TRUE(h.cluster.under_replicated_keys().empty());
  EXPECT_TRUE(h.cluster.check_invariants());
}

TEST(ClusterChurn, DeleteCancelsHintsAsObsolete) {
  RepairHarness h(3, repair_config(2));
  const ClusterNodeId victim = h.ids[0];
  h.cluster.kill_node(victim);
  // Find a key whose preferred set includes the victim.
  std::string hinted_key;
  for (int i = 0; i < 10'000 && hinted_key.empty(); ++i) {
    const std::string key = "probe" + std::to_string(i);
    const auto preferred = h.cluster.replica_nodes(key);
    if (std::find(preferred.begin(), preferred.end(), victim) !=
        preferred.end()) {
      hinted_key = key;
    }
  }
  ASSERT_FALSE(hinted_key.empty());
  ASSERT_TRUE(h.set(hinted_key, "v"));
  ASSERT_EQ(h.cluster.hint_count(), 1u);
  ASSERT_TRUE(h.cluster.del(h.live_coordinator(hinted_key), hinted_key));
  EXPECT_EQ(h.cluster.hint_count(), 0u);
  EXPECT_EQ(h.cluster.counters().repair.hints_obsolete, 1u);
}

// ---------------------------------------------------------------------------
// Anti-entropy sweep
// ---------------------------------------------------------------------------

TEST(ClusterSweep, ConvergesBackToFullReplicationAfterAKill) {
  RepairHarness h(3, repair_config(2));
  constexpr int kKeys = 120;
  // Write-only workload (no reads), so holder counts are EXACT: first half
  // before the crash, second half after it (sloppy writes).
  for (int i = 0; i < kKeys / 2; ++i) ASSERT_TRUE(h.set(key_name(i), "v"));
  const ClusterNodeId victim = h.ids[2];
  h.cluster.kill_node(victim);
  for (int i = kKeys / 2; i < kKeys; ++i) ASSERT_TRUE(h.set(key_name(i), "v"));

  const std::vector<std::string> before = h.cluster.under_replicated_keys();
  ASSERT_GT(before.size(), 0u) << "the crash left nothing under-replicated?";

  // Sweep to quiescence: with everything quiesced one unbounded tick must
  // finish the job, and the next tick must be a no-op.
  const std::size_t recopies = h.cluster.repair_tick();
  EXPECT_EQ(recopies, before.size())
      << "each under-replicated key needed exactly one re-copy";
  EXPECT_TRUE(h.cluster.under_replicated_keys().empty());
  EXPECT_EQ(h.cluster.repair_tick(), 0u);

  // EXACT convergence: every key holds min(replication, live) = 2 live
  // copies, none on the dead node.
  for (int i = 0; i < kKeys; ++i) {
    const std::string key = key_name(i);
    EXPECT_EQ(h.cluster.directory_replica_count(key), 2u) << key;
    EXPECT_FALSE(h.stores[victim]->contains(key)) << key;
  }
  const ClusterCounters c = h.cluster.counters();
  EXPECT_EQ(c.repair.sweep_recopies, before.size());
  EXPECT_EQ(c.repair.sweep_failures, 0u);
  EXPECT_EQ(c.repair.sweep_ticks, 2u);
  EXPECT_EQ(c.repair.sweep_keys_scanned, before.size());
  EXPECT_TRUE(h.cluster.check_invariants());
}

TEST(ClusterSweep, BoundedTicksResumeFromTheCursor) {
  RepairHarness h(3, repair_config(2));
  constexpr int kKeys = 80;
  for (int i = 0; i < kKeys; ++i) ASSERT_TRUE(h.set(key_name(i), "v"));
  h.cluster.kill_node(h.ids[0]);
  const std::size_t broken = h.cluster.under_replicated_keys().size();
  ASSERT_GT(broken, 3u);

  // max_keys=3 per tick: every tick repairs at most 3 keys and the cursor
  // carries the sweep forward, so ceil(broken/3) ticks finish the job.
  std::size_t total = 0;
  std::size_t ticks = 0;
  while (total < broken) {
    const std::size_t got = h.cluster.repair_tick(/*max_keys=*/3);
    ASSERT_LE(got, 3u);
    ASSERT_GT(got, 0u) << "a bounded tick stalled before convergence";
    total += got;
    ++ticks;
  }
  EXPECT_EQ(total, broken);
  EXPECT_EQ(ticks, (broken + 2) / 3);
  EXPECT_TRUE(h.cluster.under_replicated_keys().empty());
  EXPECT_EQ(h.cluster.repair_tick(/*max_keys=*/3), 0u);
  EXPECT_TRUE(h.cluster.check_invariants());
}

TEST(ClusterSweep, NothingToRepairWhenOnlyOneNodeIsLive) {
  // want = min(R, live) = 1: a lone survivor cannot re-replicate, so the
  // sweep must not spin or count failures.
  RepairHarness h(2, repair_config(2));
  for (int i = 0; i < 20; ++i) ASSERT_TRUE(h.set(key_name(i), "v"));
  h.cluster.kill_node(h.ids[1]);
  EXPECT_EQ(h.cluster.repair_tick(), 0u);
  EXPECT_TRUE(h.cluster.under_replicated_keys().empty());
  EXPECT_EQ(h.cluster.counters().repair.sweep_failures, 0u);
}

// ---------------------------------------------------------------------------
// Heal + hint replay
// ---------------------------------------------------------------------------

TEST(ClusterHeal, ReplaysEveryHintExactlyOnce) {
  RepairHarness h(3, repair_config(2));
  const ClusterNodeId victim = h.ids[1];
  h.cluster.kill_node(victim);
  constexpr int kKeys = 90;
  std::vector<std::string> hinted_keys;
  for (int i = 0; i < kKeys; ++i) {
    const std::string key = key_name(i);
    ASSERT_TRUE(h.set(key, "v"));
    const auto preferred = h.cluster.replica_nodes(key);
    if (std::find(preferred.begin(), preferred.end(), victim) !=
        preferred.end()) {
      hinted_keys.push_back(key);
    }
  }
  ASSERT_GT(hinted_keys.size(), 0u);
  const ClusterCounters before = h.cluster.counters();
  ASSERT_EQ(before.repair.hints_queued, hinted_keys.size());
  ASSERT_EQ(before.repair.hints_dropped, 0u) << "budget too small for test";

  h.cluster.heal_node(victim);
  h.cluster.heal_node(victim);  // idempotent

  // Exact replay: every hint landed, none twice, none dropped.
  const ClusterCounters after = h.cluster.counters();
  EXPECT_EQ(after.repair.hints_replayed, hinted_keys.size());
  EXPECT_EQ(after.repair.hints_obsolete, 0u);
  EXPECT_EQ(after.repair.hints_dropped, 0u);
  EXPECT_EQ(h.cluster.hint_count(), 0u);
  EXPECT_EQ(h.cluster.hint_used_bytes(), 0u);
  for (const std::string& key : hinted_keys) {
    EXPECT_TRUE(h.stores[victim]->contains(key)) << key;
  }
  // The replays restored the preferred placement: directory agrees.
  EXPECT_EQ(h.stores[victim]->aggregated_stats().items, hinted_keys.size());
  EXPECT_TRUE(h.cluster.under_replicated_keys().empty());
  EXPECT_TRUE(h.cluster.check_invariants());
}

TEST(ClusterHeal, HealThenSweepRestoresATwoNodeCluster) {
  // Two nodes, R=2: the heal replays the hints for everything written
  // while the victim was down, and the sweep then re-copies the keys the
  // CRASH itself under-replicated — together they restore R=2 everywhere.
  RepairHarness h(2, repair_config(2));
  const ClusterNodeId victim = h.ids[1];
  for (int i = 0; i < 30; ++i) ASSERT_TRUE(h.set(key_name(i), "v"));
  h.cluster.kill_node(victim);
  for (int i = 30; i < 60; ++i) ASSERT_TRUE(h.set(key_name(i), "v"));
  const std::uint64_t queued = h.cluster.counters().repair.hints_queued;
  ASSERT_GT(queued, 0u);

  h.cluster.heal_node(victim);
  // With only 2 nodes every hinted key's surviving copy is at the other
  // node, so the heal itself replays everything; a subsequent sweep then
  // re-copies the keys the CRASH under-replicated (the first 30's copies
  // died with the victim).
  const std::size_t swept = h.cluster.repair_tick();
  EXPECT_TRUE(h.cluster.under_replicated_keys().empty());
  const ClusterCounters c = h.cluster.counters();
  EXPECT_EQ(c.repair.hints_replayed + c.repair.hints_obsolete, queued);
  EXPECT_GT(swept, 0u);
  for (int i = 0; i < 60; ++i) {
    EXPECT_EQ(h.cluster.directory_replica_count(key_name(i)), 2u)
        << key_name(i);
  }
  EXPECT_TRUE(h.cluster.check_invariants());
}

TEST(ClusterHeal, HintWithNoSurvivingSourceRetiresAsObsolete) {
  // A hint is a (target, key) pointer, not a value: if every live holder
  // of the key is gone by drain time, the hint retires as obsolete rather
  // than resurrecting bytes from the flushed store.
  RepairHarness h(3, repair_config(2));
  const ClusterNodeId victim = h.ids[0];
  h.cluster.kill_node(victim);
  std::string hinted_key;
  for (int i = 0; i < 10'000 && hinted_key.empty(); ++i) {
    const std::string key = "probe" + std::to_string(i);
    const auto preferred = h.cluster.replica_nodes(key);
    if (std::find(preferred.begin(), preferred.end(), victim) !=
        preferred.end()) {
      hinted_key = key;
    }
  }
  ASSERT_FALSE(hinted_key.empty());
  ASSERT_TRUE(h.set(hinted_key, "v"));
  ASSERT_EQ(h.cluster.hint_count(), 1u);
  // Crash both surviving holders: the key's data is gone for good.
  h.cluster.kill_node(h.ids[1]);
  h.cluster.kill_node(h.ids[2]);
  h.cluster.heal_node(victim);
  const ClusterCounters c = h.cluster.counters();
  EXPECT_EQ(c.repair.hints_replayed, 0u);
  EXPECT_EQ(c.repair.hints_obsolete, 1u);
  EXPECT_FALSE(h.stores[victim]->contains(hinted_key));
}

TEST(ClusterHeal, TinyBudgetDropsOldestHintsButReplaysTheRest) {
  ClusterConfig config = repair_config(2);
  // Room for roughly two hints (32 overhead + ~5 key bytes each).
  config.repair.hint_budget_bytes = 80;
  RepairHarness h(3, config);
  const ClusterNodeId victim = h.ids[0];
  h.cluster.kill_node(victim);
  std::vector<std::string> displaced;
  for (int i = 0; i < 200 && displaced.size() < 6; ++i) {
    const std::string key = key_name(i);
    const auto preferred = h.cluster.replica_nodes(key);
    if (std::find(preferred.begin(), preferred.end(), victim) ==
        preferred.end()) {
      continue;
    }
    ASSERT_TRUE(h.set(key, "v"));
    displaced.push_back(key);
  }
  ASSERT_EQ(displaced.size(), 6u);
  const ClusterCounters mid = h.cluster.counters();
  EXPECT_GT(mid.repair.hints_dropped, 0u) << "the budget never squeezed";
  EXPECT_LE(h.cluster.hint_used_bytes(), 80u);
  const std::size_t retained = h.cluster.hint_count();

  h.cluster.heal_node(victim);
  const ClusterCounters after = h.cluster.counters();
  EXPECT_EQ(after.repair.hints_replayed, retained)
      << "the surviving (newest) hints must all replay";
  // The dropped keys are still repairable by the sweep.
  (void)h.cluster.repair_tick();
  EXPECT_TRUE(h.cluster.under_replicated_keys().empty());
}

// ---------------------------------------------------------------------------
// Read repair
// ---------------------------------------------------------------------------

TEST(ClusterReadRepair, FailoverReadReRegistersAtRecoveredHome) {
  RepairHarness h(3, repair_config(2));
  // Find a key homed at node 0 (so its replica lives elsewhere).
  std::string key;
  for (int i = 0; i < 10'000 && key.empty(); ++i) {
    const std::string probe = "probe" + std::to_string(i);
    if (h.cluster.home_node(probe) == h.ids[0]) key = probe;
  }
  ASSERT_FALSE(key.empty());
  ASSERT_TRUE(h.set(key, "payload", /*cost=*/7));
  const ClusterNodeId home = h.ids[0];
  const ClusterNodeId replica = h.cluster.replica_nodes(key)[1];

  // Crash the home and bring it straight back: live again, but empty —
  // the stale window where the client still reads the replica.
  h.cluster.kill_node(home);
  h.cluster.heal_node(home);
  ASSERT_FALSE(h.stores[home]->contains(key));

  const GetResult r = h.cluster.get(replica, key);
  EXPECT_TRUE(r.hit);
  EXPECT_EQ(r.value, "payload");
  // The read repaired the home: value, cost and directory all restored.
  EXPECT_EQ(h.cluster.counters().repair.read_repairs, 1u);
  EXPECT_TRUE(h.stores[home]->contains(key));
  EXPECT_EQ(h.cluster.directory_replica_count(key), 2u);
  const GetResult repaired = h.cluster.get(home, key);
  EXPECT_TRUE(repaired.hit);
  EXPECT_EQ(repaired.cost, 7u);
  // A second failover read finds the home already repaired: no double fire.
  (void)h.cluster.get(replica, key);
  EXPECT_EQ(h.cluster.counters().repair.read_repairs, 1u);
  EXPECT_TRUE(h.cluster.check_invariants());
}

TEST(ClusterReadRepair, DoesNotFireWhenDisabledOrHomeDead) {
  ClusterConfig config = repair_config(2);
  config.repair.read_repair = false;
  RepairHarness h(3, config);
  std::string key;
  for (int i = 0; i < 10'000 && key.empty(); ++i) {
    const std::string probe = "probe" + std::to_string(i);
    if (h.cluster.home_node(probe) == h.ids[0]) key = probe;
  }
  ASSERT_FALSE(key.empty());
  ASSERT_TRUE(h.set(key, "v"));
  const ClusterNodeId replica = h.cluster.replica_nodes(key)[1];
  h.cluster.kill_node(h.ids[0]);
  h.cluster.heal_node(h.ids[0]);
  EXPECT_TRUE(h.cluster.get(replica, key).hit);
  EXPECT_EQ(h.cluster.counters().repair.read_repairs, 0u);
  EXPECT_FALSE(h.stores[h.ids[0]]->contains(key));
}

// ---------------------------------------------------------------------------
// End-to-end: routed churn through ClusterClient
// ---------------------------------------------------------------------------

/// A transport whose node can be killed AND revived — the client-side
/// (transport) view of a crash, independent of the cluster-side kill.
class RevivableTransport final : public KvsApi {
 public:
  explicit RevivableTransport(KvsApi& inner) : inner_(inner) {}
  KvsBatchResult execute(const KvsBatch& batch) override {
    if (dead_.load()) {
      throw std::runtime_error("RevivableTransport: node is down");
    }
    return inner_.execute(batch);
  }
  void kill() { dead_.store(true); }
  void revive() { dead_.store(false); }

 private:
  KvsApi& inner_;
  std::atomic<bool> dead_{false};
};

TEST(ClusterChurnEndToEnd, KillSweepHealKeepsEveryKeyServable) {
  // The full cycle through a routed client: crash one of 3 nodes
  // mid-workload, serve through failover, sweep back to R=2, heal the
  // node, replay its hints, revive the transport — and every key written
  // at ANY point must still be a hit with no key left under-replicated.
  RepairHarness h(3, repair_config(2));
  ClusterClient router(repair_config().virtual_nodes, /*parallel=*/false,
                       /*replication=*/2);
  std::vector<std::unique_ptr<CoopNodeClient>> node_clients;
  std::vector<std::unique_ptr<RevivableTransport>> transports;
  for (const ClusterNodeId id : h.ids) {
    node_clients.push_back(std::make_unique<CoopNodeClient>(h.cluster, id));
    transports.push_back(
        std::make_unique<RevivableTransport>(*node_clients.back()));
    router.add_node(id, *transports.back());
  }
  constexpr int kKeys = 150;
  const ClusterNodeId victim = h.ids[1];
  bool victim_transport_dead = false;
  const auto routed_set = [&](const std::string& key) {
    // Mutations do not fail over; a routed client whose home TRANSPORT is
    // down (regardless of whether the node behind it healed yet) writes
    // through the next reachable node — the sloppy quorum handles
    // placement. Mirror that here.
    const ClusterNodeId home = h.cluster.home_node(key);
    if (home != victim || !victim_transport_dead) {
      KvsBatch batch;
      batch.add_set(key, "v", 0, 1);
      ASSERT_TRUE(router.execute(batch)[0].ok) << key;
    } else {
      // Coordinate at the first REACHABLE live replica instead.
      for (const ClusterNodeId id : h.cluster.replica_nodes(key)) {
        if (id != victim && h.cluster.node_live(id)) {
          ASSERT_TRUE(h.cluster.set(id, key, "v", 0, 1)) << key;
          return;
        }
      }
      FAIL() << "no reachable coordinator for " << key;
    }
  };

  for (int i = 0; i < kKeys; ++i) {
    if (i == kKeys / 3) {
      transports[1]->kill();
      victim_transport_dead = true;
      h.cluster.kill_node(victim);
    }
    if (i == 2 * kKeys / 3) {
      // Heal mid-workload; the transport stays dead a while longer (the
      // stale window), so failover reads below exercise read repair.
      h.cluster.heal_node(victim);
    }
    routed_set(key_name(i));
    // Interleaved read of an older key: must always hit, via failover
    // when its home is the victim.
    KvsBatch get;
    get.add_get(key_name(i / 2));
    EXPECT_TRUE(router.execute(get)[0].ok) << "lost " << key_name(i / 2);
    if (i == kKeys / 2) {
      EXPECT_GT(h.cluster.repair_tick(), 0u);
    }
  }
  transports[1]->revive();
  victim_transport_dead = false;

  // Quiesce: sweep until nothing is under-replicated.
  while (h.cluster.repair_tick() > 0) {
  }
  EXPECT_TRUE(h.cluster.under_replicated_keys().empty());
  const ClusterCounters c = h.cluster.counters();
  EXPECT_GT(router.failover_reads(), 0u);
  EXPECT_GT(c.repair.hints_queued, 0u);
  EXPECT_GT(c.repair.sweep_recopies, 0u);
  EXPECT_EQ(c.repair.hints_replayed + c.repair.hints_obsolete,
            c.repair.hints_queued - c.repair.hints_dropped -
                h.cluster.hint_count());
  EXPECT_EQ(c.misses, 0u) << "churn lost a written key";
  // Every key is a hit from the fully healed cluster, at full replication.
  for (int i = 0; i < kKeys; ++i) {
    KvsBatch get;
    get.add_get(key_name(i));
    EXPECT_TRUE(router.execute(get)[0].ok) << key_name(i);
    // At LEAST R copies — a key can exceed R when a sloppy write landed
    // off-prefix and the hint replay later restored the preferred node.
    EXPECT_GE(h.cluster.directory_replica_count(key_name(i)), 2u);
  }
  EXPECT_TRUE(h.cluster.check_invariants());
}

}  // namespace
}  // namespace camp::kvs
