// Cooperative KVS cluster: a four-step request flow (local hit -> directory
// peer fetch -> last-replica guard -> miss) over real KvsStore nodes, the
// KOSAR-style decentralized CAMP deployment the paper names as future work
// in Section 6. The same cluster runs in-process (ClusterClient over
// CoopNodeClients, deterministic under a ManualClock: tests, figures and the
// cooperative_cache example) and over TCP (cluster-attached KvsServers).
//
// Topology: N KvsServer (or bare KvsStore) nodes, one shared CoopCluster
// holding the consistent-hash ring, the string-keyed replica directory and
// the last-replica guard. Clients route batches with kvs::ClusterClient
// (cluster_client.h); each node answers its keys via the coop path:
//
//   1. local store lookup          -> local hit
//   2. directory -> peer fetch     -> remote hit (transfer bytes charged,
//                                     optionally promoted to the home node)
//   3. last-replica guard lookup   -> guard hit (value reinstated at home)
//   4. otherwise                   -> miss: the client recomputes and
//                                     refills with a set to the home node
//
// The last-replica guard parks the actual value bytes: when a node evicts
// the cluster's final copy of a pair, the bytes move into a byte-bounded
// FIFO with a request-count lease, so a re-request within the lease
// restores the pair without a recompute — and a pair nobody asks for again
// cannot occupy the cluster indefinitely. With value compression on, the
// guard parks the pair's STORED (compressed) form and charges the
// compressed chunk size against its byte budget, so the same
// guard_capacity_bytes shelters proportionally more pairs.
//
// Membership: join() adds a node to the ring (only ring-adjacent keys remap;
// stale placements heal through the peer-fetch + promote path). leave()
// decommissions a node: every resident pair leaves through the directory,
// last replicas drain into the guard, and the store is flushed.
//
// Replication: with ClusterConfig::replication = R > 1, every set/iqset
// fans out from the home node to the first R distinct ring nodes
// (HashRing::nodes_for placement), with a WriteAckPolicy deciding whether
// replicas are best-effort (kAckHome) or required (kAckAll). Reads still
// route to the home node; ClusterClient fails a read over to the next ring
// replica when the home transport dies.
//
// Concurrency: the cluster mutex is a LEAF lock guarding only the shared
// metadata (ring, directory, guard, counters). It is never held across a
// store or peer-transport call; the engines' eviction hooks (which run
// under a store shard lock) may take it. check_invariants() is the one
// exception — call it only while no traffic is in flight.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "coop/directory.h"
#include "coop/hash_ring.h"
#include "kvs/api.h"
#include "kvs/repair.h"
#include "kvs/store.h"
#include "util/mutex.h"

namespace camp::kvs {

class KvsClient;

using ClusterNodeId = std::uint32_t;

/// The 64-bit routing key a string key hashes to before it meets the ring
/// (FNV-1a; the ring applies its own finalizing mix). Exposed so tests can
/// reproduce the cluster's placement.
[[nodiscard]] std::uint64_t cluster_route_key(std::string_view key) noexcept;

/// How many replica acks a fanned-out write needs before it reports
/// success (replication > 1 only; with one copy there is nothing to vote).
enum class WriteAckPolicy : std::uint8_t {
  /// The HOME write (first ring node) must succeed; the R-1 replica writes
  /// are best-effort, metered by replica_writes / replica_write_failures.
  kAckHome,
  /// Every one of the R writes must ack; one failed replica fails the set.
  kAckAll,
};

struct ClusterConfig {
  /// Virtual points per node on the consistent-hash ring.
  std::uint32_t virtual_nodes = 64;
  /// Copy a remotely-fetched pair to the home node (read-through healing;
  /// this is what converges placement after a membership change).
  bool promote_on_remote_hit = true;

  /// Replication factor: set/iqset fan out to the first `replication`
  /// DISTINCT ring nodes clockwise from the key (HashRing::nodes_for),
  /// clamped to the live node count. 1 = home-only writes (the legacy
  /// path). Promotions and guard reinstatements stay single-copy either
  /// way; extra replicas are re-created by the next miss refill.
  std::uint32_t replication = 1;
  /// Ack requirement for fanned-out writes (ignored when replication == 1).
  WriteAckPolicy write_ack = WriteAckPolicy::kAckHome;

  /// Enable the last-replica guard.
  bool preserve_last_replica = true;
  /// Guard byte budget (accounted in policy-charged bytes, i.e. slab chunk
  /// sizes). 0 disables the guard even when preserve_last_replica is set.
  std::uint64_t guard_capacity_bytes = 0;
  /// A parked last replica not re-requested within this many cluster get
  /// requests is dropped.
  std::uint64_t guard_lease_requests = 50'000;

  /// Anti-entropy knobs (read repair, hinted handoff, hint byte budget).
  /// The sweep itself is driven by repair_tick() — manually from tests and
  /// figures, or by a RepairDriver thread in live deployments.
  RepairConfig repair;

  /// Split first-ever requests out of the miss counters (sim::Metrics'
  /// cold-exclusion rule). Costs memory proportional to the number
  /// of unique keys ever requested — right for bounded traces (figures,
  /// tests, equivalence runs); turn OFF for long-lived serving deployments,
  /// where every miss then counts as `misses` and `cold_misses` stays 0.
  bool track_cold_misses = true;

  void validate() const;  // throws std::invalid_argument on nonsense
};

/// Cluster-wide counters. Deterministic under a single-threaded driver
/// (the fig_coop_cluster baseline); exact under any driver, just
/// schedule-dependent then. Cold misses (first request of a key) are split
/// out so hit ratios follow sim::Metrics' cold-exclusion rule.
struct ClusterCounters {
  std::uint64_t requests = 0;  // coop get requests
  std::uint64_t local_hits = 0;
  std::uint64_t remote_hits = 0;
  std::uint64_t guard_hits = 0;
  std::uint64_t misses = 0;  // non-cold true misses
  std::uint64_t cold_misses = 0;
  std::uint64_t transfer_bytes = 0;  // value bytes fetched from peers
  std::uint64_t promotions = 0;      // remote hits copied to the home node
  std::uint64_t guard_parked = 0;
  std::uint64_t guard_expired = 0;
  std::uint64_t guard_squeezed = 0;
  /// Directory entries dropped because the holder no longer had the pair
  /// (lazy expiry, concurrent removal, decommission residue).
  std::uint64_t stale_directory_drops = 0;
  std::uint64_t sets = 0;
  std::uint64_t deletes = 0;
  /// Replication > 1 only: successful / failed NON-home replica writes of
  /// the set/iqset fan-out (the home write is accounted by `sets`).
  std::uint64_t replica_writes = 0;
  std::uint64_t replica_write_failures = 0;
  /// Guard squeeze loops aborted because the FIFO drained while the byte
  /// ledger still claimed usage — accounting drift that would otherwise
  /// spin forever in release builds. Always 0 in a healthy cluster.
  std::uint64_t guard_accounting_breaks = 0;

  /// Anti-entropy ledger (sweep / read repair / hinted handoff); pinned
  /// field by field by kvs_cluster_equivalence_test's golden churn ledgers.
  RepairCounters repair;

  [[nodiscard]] double local_hit_ratio() const noexcept {
    const std::uint64_t noncold = requests - cold_misses;
    return noncold == 0 ? 0.0
                        : static_cast<double>(local_hits) /
                              static_cast<double>(noncold);
  }
  [[nodiscard]] double remote_hit_ratio() const noexcept {
    const std::uint64_t noncold = requests - cold_misses;
    return noncold == 0 ? 0.0
                        : static_cast<double>(remote_hits) /
                              static_cast<double>(noncold);
  }
  [[nodiscard]] double guard_hit_ratio() const noexcept {
    const std::uint64_t noncold = requests - cold_misses;
    return noncold == 0 ? 0.0
                        : static_cast<double>(guard_hits) /
                              static_cast<double>(noncold);
  }
  [[nodiscard]] double miss_ratio() const noexcept {
    const std::uint64_t noncold = requests - cold_misses;
    return noncold == 0
               ? 0.0
               : static_cast<double>(misses) / static_cast<double>(noncold);
  }
};

class CoopCluster {
 public:
  using NodeId = ClusterNodeId;

  explicit CoopCluster(ClusterConfig config);
  /// Clears the eviction hooks it installed; joined stores must still be
  /// alive here.
  ~CoopCluster();
  CoopCluster(const CoopCluster&) = delete;
  CoopCluster& operator=(const CoopCluster&) = delete;

  /// Add a node backed by `store` (which must outlive its membership) with
  /// the next unused id. Installs the store's eviction hook and registers
  /// any pre-existing residents in the directory. Only keys ring-adjacent
  /// to the new node's points change home; their old copies keep serving
  /// through peer fetches until promotion heals the placement.
  NodeId join(KvsStore& store);

  /// Give the node a TCP endpoint: peer fetches/deletes TO this node then
  /// go over the wire (pget/pdel against its KvsServer) instead of through
  /// direct KvsStore calls. Wire peer fetches are synchronous — use them
  /// with drivers that bound outstanding requests (see the server test) or
  /// leave endpoints unset for in-process fetches.
  void set_node_endpoint(NodeId id, std::string host, std::uint16_t port);

  /// Decommission a node: every resident pair leaves through the directory
  /// (in sorted key order, so the drain is deterministic), last replicas
  /// park their value bytes in the guard, the store is flushed and the node
  /// leaves the ring. Throws std::invalid_argument for an unknown id or the
  /// final node.
  void leave(NodeId id);

  /// The coop read path executed by node `self` (the four steps above).
  /// `iq` uses iqget locally so the IQ cost-capture lease still works.
  [[nodiscard]] GetResult get(NodeId self, std::string_view key,
                              bool iq = false);

  /// Store the pair. With replication == 1 this writes `self`'s store (the
  /// legacy home-only path); with replication R > 1 the write fans out to
  /// the first R distinct ring nodes (peer writes go in-process, or over
  /// the wire as `pset` for nodes with an endpoint), each registering its
  /// replica through the stored hook. The return value follows
  /// config().write_ack: home ack (replicas best-effort) or all R acks.
  bool set(NodeId self, std::string_view key, std::string_view value,
           std::uint32_t flags, std::uint32_t cost,
           std::uint32_t exptime_s = 0);
  /// iqset fans out like set, but the IQ cost capture happens only at
  /// `self`'s store — the same store whose iqget recorded the miss
  /// timestamp (a routed client makes self the home node). Every other
  /// target is written as a plain set with cost 0 (engines clamp that to
  /// 1); if self is not even in the target set, the captured cost is lost
  /// and all R copies store cost 1.
  bool iqset(NodeId self, std::string_view key, std::string_view value,
             std::uint32_t flags, std::uint32_t exptime_s = 0);

  /// Cluster-wide delete: removes the pair from every directory-tracked
  /// holder (peer deletes for remote ones) and purges any guard entry.
  bool del(NodeId self, std::string_view key);

  /// Drop this node's directory entries, drop parked guard entries whose
  /// key is HOMED here (a post-flush get must not serve pre-flush bytes
  /// straight out of the guard), and flush its store (the cluster form of
  /// flush_all; the node stays in the ring). Replicas of its keys held by
  /// OTHER nodes survive — flushing one node never wipes its peers.
  void flush_node(NodeId id);

  // -- churn & anti-entropy -------------------------------------------------

  /// Crash the node: mark it dead, detach its hooks, forget its directory
  /// entries (a crash loses data — unlike leave(), NOTHING parks in the
  /// guard) and wipe its store. The node STAYS in the ring, so key homes do
  /// not move: reads fail over to surviving replicas (ClusterClient), writes
  /// slide to the next live ring nodes (sloppy quorum) and queue hints for
  /// the dead preferred targets. Requests executed AS a dead node throw.
  /// No-op if already dead.
  void kill_node(NodeId id);

  /// Rejoin a killed node: reattach its hooks, mark it live, and drain
  /// every hint queued for it (oldest first) BEFORE it serves traffic —
  /// each hint re-copies the key from a surviving live holder
  /// (hints_replayed) or is retired as obsolete (already holds it / key
  /// gone / write rejected). No-op if already live.
  void heal_node(NodeId id);

  /// One anti-entropy sweep pass: walk the replica directory in sorted
  /// (route, key) order, find keys whose live holder count is below
  /// min(replication, live nodes), and re-copy each from its first live
  /// holder onto the next live ring replicas (one peer fetch per key, one
  /// replica write per missing copy). `max_keys` > 0 bounds how many
  /// under-replicated keys one tick processes — a cursor resumes the NEXT
  /// tick after the last key swept, so successive bounded ticks cover the
  /// full directory. Returns the number of re-copies made this tick (0 at
  /// quiescence). Deterministic under a quiesced cluster; safe (but
  /// schedule-dependent) under live traffic.
  std::size_t repair_tick(std::size_t max_keys = 0);

  [[nodiscard]] bool node_live(NodeId id) const;
  /// Keys whose LIVE holder count is below min(replication, live nodes),
  /// sorted. Empty exactly when the sweep has converged.
  [[nodiscard]] std::vector<std::string> under_replicated_keys() const;
  [[nodiscard]] std::size_t hint_count() const;
  [[nodiscard]] std::uint64_t hint_used_bytes() const;

  [[nodiscard]] NodeId home_node(std::string_view key) const;
  /// The key's full write target set: the first min(replication, nodes)
  /// distinct ring nodes, home first.
  [[nodiscard]] std::vector<NodeId> replica_nodes(std::string_view key) const;
  [[nodiscard]] std::size_t node_count() const;
  [[nodiscard]] std::vector<NodeId> node_ids() const;
  [[nodiscard]] const ClusterConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] ClusterCounters counters() const;
  [[nodiscard]] std::size_t guard_item_count() const;
  [[nodiscard]] std::uint64_t guard_used_bytes() const;
  [[nodiscard]] bool guard_contains(std::string_view key) const;
  [[nodiscard]] std::size_t directory_replica_count(
      std::string_view key) const;

  /// Directory/store agreement: every directory entry's holder really holds
  /// the key, replica totals match resident totals, guard stays in budget,
  /// parked pairs have zero replicas. Snapshots the metadata, then queries
  /// the stores lock-free — only meaningful while no traffic is in flight.
  [[nodiscard]] bool check_invariants() const;

 private:
  struct Node {
    KvsStore* store = nullptr;
    std::string host;
    std::uint16_t port = 0;  // 0 = in-process peer transport
    /// False between kill_node and heal_node: still on the ring (homes do
    /// not move) but takes no reads, writes, fetches or repair copies.
    bool live = true;
  };

  struct GuardEntry {
    std::string key;
    /// The pair in its STORED form (compressed bytes for a compressed
    /// pair): parking never decompresses, and a guard hit reinstates the
    /// stored bytes verbatim. `charged_bytes` below is therefore the
    /// compressed chunk charge — the guard budget stretches exactly as far
    /// as the node's own slab capacity does.
    std::string stored;
    std::uint32_t raw_len = 0;
    Codec codec = Codec::kIdentity;
    std::uint32_t flags = 0;
    std::uint32_t cost = 0;
    std::uint64_t charged_bytes = 0;
    std::uint64_t deadline = 0;  // request count at which the lease lapses
    /// TTL seconds left at park time; reinstated with this lease (the park
    /// interval is not subtracted — conservative, never immortal). 0 =
    /// never expires.
    std::uint32_t remaining_ttl_s = 0;
  };

  /// One lazily-connected peer connection; `mutex` serializes its users.
  /// Held across the synchronous wire round-trip, which is why it ranks
  /// BELOW the cluster leaf mutex (a peer fetch must never be able to stall
  /// the metadata lock) and why link_for never holds links_mutex_ while
  /// taking it.
  struct PeerLink {
    util::Mutex mutex{util::LockRank::kClusterPeerLink};
    std::unique_ptr<KvsClient> client CAMP_GUARDED_BY(mutex)
        CAMP_PT_GUARDED_BY(mutex);
  };

  void on_node_eviction(NodeId id, const EvictedItem& item);
  void on_node_stored(NodeId id, std::string_view key);
  /// Fetch the pair in its STORED form — compressed pairs cross the peer
  /// transport (and every repair path built on it) compressed, so the
  /// transfer_bytes counter meters the bytes that actually moved.
  [[nodiscard]] StoredGetResult peer_fetch(NodeId holder,
                                           std::string_view key);
  bool peer_delete(NodeId holder, std::string_view key);
  /// One replica write of the set/iqset fan-out: direct store call for an
  /// in-process node, `pset` for one with an endpoint. `stored` is the
  /// pair's stored form decoding to `raw_len` bytes under `codec`
  /// (identity: stored IS the raw value and the target applies its own
  /// compression config). False on any failure (store rejection, dead
  /// peer, malformed reply).
  bool replica_write(NodeId target, std::string_view key,
                     std::string_view stored, std::uint32_t raw_len,
                     Codec codec, std::uint32_t flags, std::uint32_t cost,
                     std::uint32_t exptime_s);
  /// The replication > 1 write path: write every node in `targets` in ring
  /// order (the home is targets.front()) and vote per write_ack.
  bool fan_out_write(NodeId self, KvsStore* local,
                     const std::vector<NodeId>& targets, std::string_view key,
                     std::string_view value, std::uint32_t flags,
                     std::uint32_t cost, std::uint32_t exptime_s, bool iq);
  /// Sloppy-quorum target selection for a replicated write: the first
  /// min(replication, live) LIVE ring nodes (identical to the strict
  /// preference list while everything is live), queuing a hint for every
  /// dead node displaced from the preference prefix (kAckHome only — under
  /// kAckAll the write fails instead, so there is nothing to hand off).
  [[nodiscard]] std::vector<NodeId> plan_write_targets_locked(
      std::string_view key) CAMP_REQUIRES(mutex_);
  [[nodiscard]] std::shared_ptr<PeerLink> link_for(NodeId id);

  // -- guard (all require mutex_) -----------------------------------------
  /// Parks `entry` (its `deadline` is assigned here from the current
  /// request count; any caller-supplied value is overwritten).
  void guard_park_locked(GuardEntry entry) CAMP_REQUIRES(mutex_);
  void guard_expire_front_locked() CAMP_REQUIRES(mutex_);
  void guard_drop_locked(std::list<GuardEntry>::iterator it)
      CAMP_REQUIRES(mutex_);
  /// Remove and return the parked entry for `key` if its lease is alive.
  [[nodiscard]] std::optional<GuardEntry> guard_take(const std::string& key)
      CAMP_EXCLUDES(mutex_);

  /// Validates `config` (so the ctor can initialize the const members from
  /// an already-checked copy) and returns it.
  [[nodiscard]] static ClusterConfig validated(ClusterConfig config);

  const ClusterConfig config_;
  const std::uint64_t guard_capacity_;  // 0 when the guard is disabled

  // Leaf lock (see file comment): guards the shared metadata and is never
  // held across a store or peer-transport call. kClusterLeaf is the highest
  // rank in the hierarchy because the engines' eviction hooks take it while
  // holding a store shard lock (and, through a sharded CAMP policy, the
  // whole CAMP-internal chain).
  mutable util::Mutex mutex_{util::LockRank::kClusterLeaf};
  coop::HashRing ring_ CAMP_GUARDED_BY(mutex_);
  std::map<NodeId, Node> nodes_ CAMP_GUARDED_BY(mutex_);
  coop::ReplicaDirectory directory_ CAMP_GUARDED_BY(mutex_);
  ClusterCounters counters_ CAMP_GUARDED_BY(mutex_);
  std::unordered_set<std::string> seen_ CAMP_GUARDED_BY(mutex_);  // cold-miss

  // Guard FIFO (deadlines are monotone: front expires first).
  std::list<GuardEntry> guard_fifo_ CAMP_GUARDED_BY(mutex_);
  std::unordered_map<std::string, std::list<GuardEntry>::iterator>
      guard_index_ CAMP_GUARDED_BY(mutex_);
  std::uint64_t guard_used_ CAMP_GUARDED_BY(mutex_) = 0;
  NodeId next_node_id_ CAMP_GUARDED_BY(mutex_) = 0;

  // Hinted-handoff queue (budget set from config_.repair in the ctor) and
  // the bounded-sweep resume cursor (last key processed by a max_keys tick).
  HintQueue hints_ CAMP_GUARDED_BY(mutex_);
  std::optional<std::string> sweep_cursor_ CAMP_GUARDED_BY(mutex_);

  // Guards the link MAP, not the links; ranks below the per-link mutex so
  // a thread may look a link up and then lock it, never the reverse.
  mutable util::Mutex links_mutex_{util::LockRank::kClusterLinks};
  std::map<NodeId, std::shared_ptr<PeerLink>> links_
      CAMP_GUARDED_BY(links_mutex_);
};

/// In-process transport for one cluster node: a KvsApi whose ops run the
/// cooperative path as node `self`. The deterministic twin of a cluster-
/// attached KvsServer — ClusterClient over CoopNodeClients is the whole
/// cluster without sockets.
class CoopNodeClient final : public KvsApi {
 public:
  CoopNodeClient(CoopCluster& cluster, ClusterNodeId self)
      : cluster_(cluster), self_(self) {}

  [[nodiscard]] KvsBatchResult execute(const KvsBatch& batch) override;

  [[nodiscard]] ClusterNodeId node_id() const noexcept { return self_; }

 private:
  CoopCluster& cluster_;
  ClusterNodeId self_;
};

}  // namespace camp::kvs
