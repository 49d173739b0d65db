// Golden ledgers for the in-process cooperative cluster: one deterministic
// trace driven through ClusterClient over CoopNodeClients (ManualClock,
// sequential router) must reproduce, counter for counter, the ledgers
// pinned below — the local/remote/guard/miss split, the guard's park /
// expire / squeeze counts, the transfer meter, the whole anti-entropy
// ledger under churn, and two 64-bit per-op digests: of the served/not-
// served sequence, and of the guard's occupancy after every op (so a lease
// that lapses one request early or late changes it).
//
// Provenance: every literal was recorded from the cluster<->simulator
// equivalence test this file replaces, at the last commit that still kept
// the single-threaded cooperative-group simulator. That test drove both
// substrates in lock-step with the same charged sizes, costs and ring
// geometry and asserted per-op agreement (served outcome and guard item
// count) and per-counter agreement, so each number here is one both
// implementations produced independently. A deliberate
// change to the cluster's protocol re-records them: the failure message
// prints the full actual ledger.
//
// Three schedules, each at lru/camp (and R = 1/2 where it applies):
//   * plain      — 3 nodes, a fourth joins half way (remote hits and
//                  promotions);
//   * compressed — the same with value compression on at every node, so
//                  every byte charge (local sets, promotions, guard parks,
//                  squeezes, replica fan-out, transfers) is post-codec;
//   * churn      — R = 2 with a crash, sloppy writes + hints, interleaved
//                  sweep ticks, a mid-outage join, heal + hint replay and a
//                  stale-client window (read repair).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "kvs/cluster.h"
#include "kvs/cluster_client.h"
#include "kvs/compress.h"
#include "policy/policy_factory.h"
#include "util/clock.h"
#include "util/rng.h"

namespace camp::kvs {
namespace {

constexpr std::size_t kValueBytes = 1000;
constexpr std::uint64_t kSlabBytes = 64u << 10;
constexpr double kPolicyFill = 0.85;  // EngineConfig default
constexpr std::uint64_t kLease = 3'000;
constexpr std::uint32_t kNodes = 3;
constexpr int kOps = 24'000;

std::uint32_t cost_of(std::uint64_t key_id) {
  return 1 + static_cast<std::uint32_t>((key_id * 2654435761ull) % 9'999);
}

/// Built without the fused `"k" + to_string` temporary, which trips GCC
/// 12's bogus -Wrestrict at -O2 (same workaround as figures/registry.cc).
std::string key_name(std::uint64_t key_id) {
  std::string out = "k";
  out += std::to_string(key_id);
  return out;
}

/// Half pseudo-random, half run: RLE keeps the literal half and collapses
/// the run, so the stored form is ~0.5x the raw kValueBytes — large enough
/// to matter, deterministic, and identical for every key.
std::string compressible_payload() {
  util::Xoshiro256 rng(77);
  std::string payload(kValueBytes / 2, '\0');
  for (char& c : payload) c = static_cast<char>(rng.next() & 0xff);
  payload += std::string(kValueBytes - payload.size(), 'v');
  return payload;
}

/// FNV-1a step over one per-op observation. Each step is a bijection of
/// the running digest, so two sequences that differ in exactly one
/// observation always end in different digests.
std::uint64_t fold(std::uint64_t digest, std::uint64_t observation) {
  return (digest ^ observation) * 0x100000001b3ull;
}
constexpr std::uint64_t kDigestBasis = 0xcbf29ce484222325ull;

/// The request-path ledger the equivalence test compared field by field,
/// plus the two per-op digests.
struct Ledger {
  std::uint64_t requests = 0;
  std::uint64_t local_hits = 0;
  std::uint64_t remote_hits = 0;
  std::uint64_t guard_hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t cold_misses = 0;
  std::uint64_t guard_parked = 0;
  std::uint64_t guard_expired = 0;
  std::uint64_t guard_squeezed = 0;
  std::uint64_t transfer_bytes = 0;
  std::uint64_t served_digest = 0;
  std::uint64_t guard_digest = 0;

  bool operator==(const Ledger&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Ledger& l) {
  return os << "{" << l.requests << ", " << l.local_hits << ", "
            << l.remote_hits << ", " << l.guard_hits << ", " << l.misses
            << ", " << l.cold_misses << ", " << l.guard_parked << ", "
            << l.guard_expired << ", " << l.guard_squeezed << ", "
            << l.transfer_bytes << std::hex << ", 0x" << l.served_digest
            << "ull, 0x" << l.guard_digest << "ull}" << std::dec;
}

/// The churn schedule's anti-entropy ledger, hint queue, residue and the
/// re-copy count of every sweep tick (in-run, then post-run).
struct RepairLedger {
  RepairCounters repair;
  std::size_t hint_count = 0;
  std::size_t under_replicated = 0;
  std::vector<std::size_t> in_run_ticks;
  std::vector<std::size_t> post_run_ticks;

  bool operator==(const RepairLedger& o) const {
    const RepairCounters& a = repair;
    const RepairCounters& b = o.repair;
    return a.read_repairs == b.read_repairs &&
           a.hints_queued == b.hints_queued &&
           a.hints_replayed == b.hints_replayed &&
           a.hints_dropped == b.hints_dropped &&
           a.hints_obsolete == b.hints_obsolete &&
           a.sweep_ticks == b.sweep_ticks &&
           a.sweep_keys_scanned == b.sweep_keys_scanned &&
           a.sweep_recopies == b.sweep_recopies &&
           a.sweep_failures == b.sweep_failures &&
           hint_count == o.hint_count &&
           under_replicated == o.under_replicated &&
           in_run_ticks == o.in_run_ticks &&
           post_run_ticks == o.post_run_ticks;
  }
};

std::ostream& operator<<(std::ostream& os, const std::vector<std::size_t>& v) {
  os << "{";
  for (std::size_t i = 0; i < v.size(); ++i) os << (i ? ", " : "") << v[i];
  return os << "}";
}

std::ostream& operator<<(std::ostream& os, const RepairLedger& l) {
  const RepairCounters& r = l.repair;
  return os << "{{" << r.read_repairs << ", " << r.hints_queued << ", "
            << r.hints_replayed << ", " << r.hints_dropped << ", "
            << r.hints_obsolete << ", " << r.sweep_ticks << ", "
            << r.sweep_keys_scanned << ", " << r.sweep_recopies << ", "
            << r.sweep_failures << "}, " << l.hint_count << ", "
            << l.under_replicated << ", " << l.in_run_ticks << ", "
            << l.post_run_ticks << "}";
}

/// A transport that can be killed and revived, so the CLIENT's view of a
/// node (reads fail over) is switched independently of the node itself.
class FlakyTransport final : public KvsApi {
 public:
  explicit FlakyTransport(KvsApi& inner) : inner_(inner) {}
  KvsBatchResult execute(const KvsBatch& batch) override {
    if (dead_) throw std::runtime_error("FlakyTransport: node is down");
    return inner_.execute(batch);
  }
  void kill() { dead_ = true; }
  void revive() { dead_ = false; }

 private:
  KvsApi& inner_;
  bool dead_ = false;
};

enum class Schedule { kPlain, kCompressed, kChurn };

/// Everything one schedule run produces.
struct RunResult {
  ClusterCounters counters;
  Ledger ledger;
  RepairLedger repair;
  std::size_t stored_len = 0;  // bytes per stored pair (compressed form)
  bool invariants = false;
};

/// Drive the 24k-op skewed trace through a 3-node cluster (a fourth node
/// joins half way): every get that misses is refilled with a set, exactly
/// the cache-aside loop the equivalence test ran.
RunResult run_schedule(Schedule schedule, const std::string& policy_spec,
                       std::uint32_t replication) {
  static const util::ManualClock clock;
  const bool compressed = schedule == Schedule::kCompressed;
  const bool churn = schedule == Schedule::kChurn;

  // Compression halves the bytes per pair, so it halves the node budget
  // too: evictions, parks and squeezes all still fire.
  const std::uint64_t node_slab_limit = (compressed ? 4 : 8) * kSlabBytes;
  const std::uint64_t policy_capacity = static_cast<std::uint64_t>(
      static_cast<double>(node_slab_limit) * kPolicyFill);

  StoreConfig store_config;
  store_config.shards = 1;
  store_config.engine.slab.slab_size_bytes =
      static_cast<std::uint32_t>(kSlabBytes);
  store_config.engine.slab.memory_limit_bytes = node_slab_limit;
  store_config.engine.compression.enabled = compressed;
  const PolicyFactory factory = [&policy_spec](std::uint64_t cap) {
    return policy::make_policy(policy_spec, cap);
  };
  ClusterConfig cluster_config;
  cluster_config.guard_capacity_bytes = static_cast<std::uint64_t>(
      std::llround(0.25 * static_cast<double>(policy_capacity)));
  cluster_config.guard_lease_requests = kLease;
  cluster_config.replication = replication;

  std::vector<std::unique_ptr<KvsStore>> stores;
  CoopCluster cluster(cluster_config);
  std::vector<std::unique_ptr<CoopNodeClient>> node_clients;
  std::vector<std::unique_ptr<FlakyTransport>> transports;
  ClusterClient router(cluster_config.virtual_nodes, /*parallel=*/false,
                       replication);
  const auto add_node = [&] {
    stores.push_back(
        std::make_unique<KvsStore>(store_config, factory, clock));
    const ClusterNodeId id = cluster.join(*stores.back());
    node_clients.push_back(std::make_unique<CoopNodeClient>(cluster, id));
    transports.push_back(
        std::make_unique<FlakyTransport>(*node_clients.back()));
    router.add_node(id, *transports.back());
  };
  for (std::uint32_t n = 0; n < kNodes; ++n) add_node();

  const std::string payload =
      compressed ? compressible_payload() : std::string(kValueBytes, 'v');
  RunResult out;
  out.stored_len =
      compressed ? compress_value(payload, store_config.engine.compression)
                       .data.size()
                 : kValueBytes;

  constexpr ClusterNodeId kVictim = 1;
  constexpr int kKill = kOps / 4;
  constexpr int kJoin = kOps / 2;
  constexpr int kHeal = 3 * kOps / 4;
  constexpr int kRevive = kHeal + 400;  // the read-repair (stale) window
  bool victim_unreachable = false;
  std::uint64_t served_digest = kDigestBasis;
  std::uint64_t guard_digest = kDigestBasis;

  // Refill. Mutations do not fail over, so when the key's home transport is
  // down the set is coordinated at the first reachable live replica instead
  // (the sloppy plan is the same whichever live node coordinates).
  const auto refill = [&](int op, const std::string& key,
                          std::uint32_t cost) {
    bool refilled = false;
    if (victim_unreachable && cluster.home_node(key) == kVictim) {
      for (const ClusterNodeId id : cluster.replica_nodes(key)) {
        if (id != kVictim && cluster.node_live(id)) {
          refilled = cluster.set(id, key, payload, 0, cost);
          break;
        }
      }
    } else {
      KvsBatch set;
      set.add_set(key, payload, 0, cost);
      refilled = router.execute(set)[0].ok;
    }
    EXPECT_TRUE(refilled) << "refill rejected for " << key << " at op " << op;
    return refilled;
  };

  util::Xoshiro256 rng(2014);
  for (int i = 0; i < kOps; ++i) {
    if (churn && i == kKill) {
      transports[kVictim]->kill();
      victim_unreachable = true;
      cluster.kill_node(kVictim);
    }
    if (i == kJoin) add_node();
    // The node heals (and drains its hints) before the CLIENT notices:
    // until kRevive, reads still fail over — the read-repair window.
    if (churn && i == kHeal) cluster.heal_node(kVictim);
    if (churn && i == kRevive) {
      transports[kVictim]->revive();
      victim_unreachable = false;
    }
    if (churn && i % 1'500 == 0 && i > 0) {
      out.repair.in_run_ticks.push_back(cluster.repair_tick());
    }

    // Skewed key mix: a hot core plus a long tail.
    const std::uint64_t key_id =
        rng.below(10) < 7 ? rng.below(350) : 350 + rng.below(1'400);
    const std::string key = key_name(key_id);
    const std::uint32_t cost = cost_of(key_id);

    KvsBatch get;
    get.add_get(key);
    const bool served = router.execute(get)[0].ok;
    served_digest = fold(served_digest, served ? 1 : 0);
    if (!served && !refill(i, key, cost)) return out;
    guard_digest = fold(guard_digest, cluster.guard_item_count());
  }
  if (churn) {
    // A few more sweeps. These nodes hold far fewer than 2x the key
    // population, so the sweep cannot reach zero under-replicated keys —
    // every re-copy evicts some other pair. Exact convergence under roomy
    // stores is kvs_cluster_repair_test's job; here the residue is pinned.
    for (int extra = 0; extra < 4; ++extra) {
      out.repair.post_run_ticks.push_back(cluster.repair_tick());
    }
    out.repair.under_replicated = cluster.under_replicated_keys().size();
    out.repair.hint_count = cluster.hint_count();
  }

  const ClusterCounters c = cluster.counters();
  out.counters = c;
  out.repair.repair = c.repair;
  out.ledger = Ledger{c.requests,     c.local_hits,    c.remote_hits,
                      c.guard_hits,   c.misses,        c.cold_misses,
                      c.guard_parked, c.guard_expired, c.guard_squeezed,
                      c.transfer_bytes, served_digest, guard_digest};
  out.invariants = cluster.check_invariants();
  return out;
}

// ---------------------------------------------------------------------------
// Plain and compressed schedules
// ---------------------------------------------------------------------------

struct GoldenCase {
  std::string policy;
  std::uint32_t replication;
  Ledger want;
};

void PrintTo(const GoldenCase& c, std::ostream* os) {
  *os << c.policy << " r=" << c.replication;
}

std::string case_name(const ::testing::TestParamInfo<GoldenCase>& info) {
  return info.param.policy + "_r" + std::to_string(info.param.replication);
}

class ClusterGoldenLedger : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(ClusterGoldenLedger, IdenticalCountersIncludingAJoin) {
  const GoldenCase& g = GetParam();
  const RunResult r = run_schedule(Schedule::kPlain, g.policy, g.replication);
  EXPECT_EQ(r.ledger, g.want);
  // Fixed-size identity values: every remote hit moves kValueBytes.
  EXPECT_EQ(r.counters.transfer_bytes, r.counters.remote_hits * kValueBytes);
  EXPECT_GT(r.counters.remote_hits, 0u) << "the join produced no remote "
                                           "traffic";
  EXPECT_GT(r.counters.guard_hits, 0u) << "the guard never reinstated "
                                          "anything";
  if (g.replication > 1) {
    // Every miss refill fanned out; the replica ledger must show it.
    EXPECT_GT(r.counters.replica_writes + r.counters.replica_write_failures,
              0u);
  }
  EXPECT_TRUE(r.invariants);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, ClusterGoldenLedger,
    ::testing::Values(
        GoldenCase{"lru", 1,
                   {24000, 20755, 174, 390, 942, 1739, 1536, 104, 977, 174000,
                    0x4695ed925a012898ull, 0x1b4e993106e0130aull}},
        GoldenCase{"lru", 2,
                   {24000, 19149, 187, 562, 2363, 1739, 3502, 0, 2841, 187000,
                    0xcff854659b179a39ull, 0x8a50cb5fdb907156ull}},
        GoldenCase{"camp", 1,
                   {24000, 20220, 184, 774, 1083, 1739, 2148, 0, 1276, 184000,
                    0xd17d72475d451af5ull, 0x68059cb73f15ded4ull}},
        GoldenCase{"camp", 2,
                   {24000, 17931, 273, 1258, 2799, 1739, 4625, 0, 3269, 273000,
                    0x5ebe0ac1fc4a3ce1ull, 0x618188ad4db10ea2ull}}),
    case_name);

class ClusterGoldenCompressionLedger
    : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(ClusterGoldenCompressionLedger, CountersPinExactlyUnderCompression) {
  // The simulator that recorded these ledgers had no codec — it only ever
  // saw byte charges, driven with the COMPRESSED chunk size. Matching them
  // proves the cluster charges post-codec bytes everywhere a size matters,
  // with no layer quietly falling back to raw sizes.
  const GoldenCase& g = GetParam();
  const RunResult r =
      run_schedule(Schedule::kCompressed, g.policy, g.replication);
  ASSERT_LT(r.stored_len, kValueBytes * 6 / 10)
      << "the payload must actually compress";
  EXPECT_EQ(r.ledger, g.want);
  // Peer transfers move the STORED form: one stored_len per remote hit.
  EXPECT_EQ(r.counters.transfer_bytes, r.counters.remote_hits * r.stored_len);
  EXPECT_GT(r.counters.remote_hits, 0u);
  EXPECT_GT(r.counters.guard_hits, 0u);
  EXPECT_GT(r.counters.guard_parked, 0u);
  EXPECT_TRUE(r.invariants);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, ClusterGoldenCompressionLedger,
    ::testing::Values(
        GoldenCase{"lru", 1,
                   {24000, 20640, 169, 402, 1050, 1739, 1683, 112, 1090, 86528,
                    0xfd415de72bbfcc7eull, 0x7986e985e9fe77bfull}},
        GoldenCase{"lru", 2,
                   {24000, 18973, 183, 583, 2522, 1739, 3718, 0, 3039, 93696,
                    0xd583e3429ee58424ull, 0xf47b8e8c7ca97abcull}},
        GoldenCase{"camp", 1,
                   {24000, 20063, 173, 803, 1222, 1739, 2334, 0, 1435, 88576,
                    0x0a93a426e8bc3bbeull, 0xea4396b3761b1634ull}},
        GoldenCase{"camp", 2,
                   {24000, 17717, 276, 1276, 2992, 1739, 4875, 0, 3504,
                    141312, 0xe363c1b51ecf996cull, 0x9a4ed340dfa923c7ull}}),
    case_name);

// ---------------------------------------------------------------------------
// Churn schedule: crash, hints, sweeps, join, heal, read repair (R = 2)
// ---------------------------------------------------------------------------

struct ChurnGoldenCase {
  std::string policy;
  Ledger want;
  RepairLedger want_repair;
};

void PrintTo(const ChurnGoldenCase& c, std::ostream* os) { *os << c.policy; }

class ClusterGoldenRepairLedger
    : public ::testing::TestWithParam<ChurnGoldenCase> {};

TEST_P(ClusterGoldenRepairLedger, ChurnRepairLedgersMatchExactly) {
  const ChurnGoldenCase& g = GetParam();
  const RunResult r = run_schedule(Schedule::kChurn, g.policy, 2);
  EXPECT_EQ(r.ledger, g.want);
  EXPECT_EQ(r.repair, g.want_repair);
  EXPECT_EQ(r.counters.transfer_bytes, r.counters.remote_hits * kValueBytes);
  // The schedule exercised all three mechanisms — none of these are
  // vacuous zeros.
  EXPECT_GT(r.counters.repair.read_repairs, 0u) << "stale window produced "
                                                   "none";
  EXPECT_GT(r.counters.repair.hints_queued, 0u);
  EXPECT_GT(r.counters.repair.hints_replayed, 0u);
  EXPECT_GT(r.counters.repair.sweep_recopies, 0u);
  EXPECT_TRUE(r.invariants);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, ClusterGoldenRepairLedger,
    ::testing::Values(
        ChurnGoldenCase{
            "lru",
            {24000, 16807, 159, 976, 4319, 1739, 6128, 0, 5053, 159000,
             0xb101e42f8d9cacebull, 0x41319c65c9031365ull},
            {{22, 1115, 482, 0, 633, 19, 4995, 4288, 707},
             0,
             42,
             {162, 310, 247, 361, 226, 259, 256, 229, 241, 288, 329, 142, 239,
              273, 285},
             {267, 83, 47, 44}}},
        ChurnGoldenCase{
            "camp",
            {24000, 15390, 239, 1573, 5059, 1739, 7482, 0, 5810, 239000,
             0x444148767294e869ull, 0x394f948ab0e73374ull},
            {{13, 1068, 431, 0, 637, 19, 4476, 3773, 703},
             0,
             44,
             {90, 261, 245, 363, 200, 204, 235, 210, 144, 253, 215, 134, 176,
              291, 285},
             {265, 99, 58, 45}}}),
    [](const auto& info) { return info.param.policy; });

}  // namespace
}  // namespace camp::kvs
