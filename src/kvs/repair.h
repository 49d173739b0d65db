// Anti-entropy repair primitives for the replicated cooperative cluster:
// the pieces that make replication-factor-R CONVERGE back to R after churn
// instead of being best-effort at write time.
//
// Three cooperating mechanisms (paper framing: the IQ-protected multi-node
// deployment of Section 6 only pays off while every key keeps R live
// copies):
//
//   * anti-entropy sweep  — a background pass over the replica directory in
//     sorted-key order, re-copying under-replicated keys from a surviving
//     holder onto the next live ring replicas (CoopCluster::repair_tick);
//   * read repair         — a read served by a non-home replica re-registers
//     the value at the recovered home (CoopCluster::get);
//   * hinted handoff      — a write whose preferred replica is down (or
//     fails) queues a bounded, byte-budgeted hint; the rejoining node drains
//     its hints before serving traffic (CoopCluster::heal_node).
//
// Everything here is deterministic and counter-metered, so the repair
// schedule itself is baselined (fig_coop_cluster's churn-repair series) and
// pinned counter for counter by kvs_cluster_equivalence_test's golden
// churn ledgers.
//
// Layering: this header is dependency-free (std only). The planners are
// pure functions of the ring order and a liveness/holder predicate, so they
// are unit-tested on their own (kvs_cluster_repair_test) apart from the
// cluster that calls them.
//
// Locking: HintQueue is externally synchronized — the cluster keeps it
// behind its leaf mutex (CAMP_GUARDED_BY). RepairDriver deliberately owns
// NO mutex (an atomic flag and a sliced sleep), so it adds nothing to the
// lock-rank hierarchy.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace camp::kvs {

/// Tunables for the three repair mechanisms. All on by default; each can be
/// disabled independently (tests isolate mechanisms that way).
struct RepairConfig {
  /// Re-register a value at its live home when a read was served by a
  /// non-home replica that the directory says the home is missing.
  bool read_repair = true;
  /// Queue hints for down/failed preferred replicas of a fanned-out write
  /// (kAckHome only — under kAckAll a failed replica fails the write, so
  /// there is nothing to hand off).
  bool hinted_handoff = true;
  /// Byte budget for the hint queue (accounted as kHintOverheadBytes +
  /// key bytes per hint). 0 disables hinted handoff outright.
  std::uint64_t hint_budget_bytes = 64u << 10;
};

/// Deterministic repair ledger, embedded in ClusterCounters.
struct RepairCounters {
  /// Reads served at a non-home replica whose value was re-registered at
  /// the (live, missing) home node.
  std::uint64_t read_repairs = 0;
  std::uint64_t hints_queued = 0;
  /// Hints whose key reached the rejoined target on drain.
  std::uint64_t hints_replayed = 0;
  /// Hints dropped by the byte budget (oversize key or FIFO squeeze).
  std::uint64_t hints_dropped = 0;
  /// Hints that had nothing left to do on drain: the target already held
  /// the key, the key vanished from the cluster, or the replay write was
  /// rejected by the target.
  std::uint64_t hints_obsolete = 0;
  std::uint64_t sweep_ticks = 0;
  std::uint64_t sweep_keys_scanned = 0;
  /// Successful re-copies onto a live ring replica during sweeps.
  std::uint64_t sweep_recopies = 0;
  /// Sweep re-copies that could not happen: no live source holder, the
  /// source lost the pair before the fetch, or the target rejected it.
  std::uint64_t sweep_failures = 0;
};

/// Fixed accounting overhead per queued hint (list node + index entry,
/// order-of-magnitude); the variable part is the key's byte size.
inline constexpr std::uint64_t kHintOverheadBytes = 32;

/// Bounded FIFO of (target node, key) hints with a byte budget and a
/// (target, key) dedup index. Externally synchronized (see file comment).
class HintQueue {
 public:
  struct Hint {
    std::uint32_t target = 0;
    std::string key;
    std::uint64_t charge = 0;
  };

  /// 0 disables the queue (every push drops).
  void set_budget(std::uint64_t bytes) noexcept { budget_ = bytes; }

  /// Queue a hint. A duplicate (target, key) is a silent no-op; an
  /// over-budget push squeezes the OLDEST hints out first (each squeeze
  /// counts as a drop), and a hint that cannot fit at all is dropped.
  void push(std::uint32_t target, const std::string& key,
            std::uint64_t charge, RepairCounters& counters) {
    if (budget_ == 0 || charge > budget_) {
      ++counters.hints_dropped;
      return;
    }
    if (index_.find(std::make_pair(target, key)) != index_.end()) return;
    while (used_ + charge > budget_) {
      ++counters.hints_dropped;
      drop(fifo_.begin());
    }
    fifo_.push_back(Hint{target, key, charge});
    index_[std::make_pair(target, key)] = std::prev(fifo_.end());
    used_ += charge;
    ++counters.hints_queued;
  }

  /// Remove and return every key hinted at `target`, oldest first (the
  /// order the writes were missed in).
  [[nodiscard]] std::vector<std::string> drain(std::uint32_t target) {
    std::vector<std::string> keys;
    for (auto it = fifo_.begin(); it != fifo_.end();) {
      const auto next = std::next(it);
      if (it->target == target) {
        keys.push_back(it->key);
        drop(it);
      }
      it = next;
    }
    return keys;
  }

  /// Cancel every hint for `key` (cluster-wide delete). Returns how many
  /// were removed.
  std::size_t erase_key(const std::string& key) {
    std::size_t removed = 0;
    for (auto it = fifo_.begin(); it != fifo_.end();) {
      const auto next = std::next(it);
      if (it->key == key) {
        drop(it);
        ++removed;
      }
      it = next;
    }
    return removed;
  }

  /// Cancel every hint aimed at `target` (node decommission). Returns how
  /// many were removed.
  std::size_t erase_target(std::uint32_t target) {
    std::size_t removed = 0;
    for (auto it = fifo_.begin(); it != fifo_.end();) {
      const auto next = std::next(it);
      if (it->target == target) {
        drop(it);
        ++removed;
      }
      it = next;
    }
    return removed;
  }

  [[nodiscard]] bool contains(std::uint32_t target,
                              const std::string& key) const {
    return index_.find(std::make_pair(target, key)) != index_.end();
  }
  [[nodiscard]] std::size_t size() const noexcept { return fifo_.size(); }
  [[nodiscard]] std::uint64_t used_bytes() const noexcept { return used_; }

 private:
  void drop(std::list<Hint>::iterator it) {
    used_ -= it->charge;
    index_.erase(std::make_pair(it->target, it->key));
    fifo_.erase(it);
  }

  std::list<Hint> fifo_;
  // std::map (not unordered) so iteration order never matters and the pair
  // key needs only operator<.
  std::map<std::pair<std::uint32_t, std::string>, std::list<Hint>::iterator>
      index_;
  std::uint64_t budget_ = 0;
  std::uint64_t used_ = 0;
};

/// A sloppy-quorum write plan: where an R-replica write actually goes when
/// some preferred nodes are down.
struct SloppyWritePlan {
  /// The first `replication` LIVE nodes in ring preference order (home
  /// first). Identical to the strict preference list while everything is
  /// live — the all-live fast path is bit-for-bit the legacy behavior.
  std::vector<std::uint32_t> targets;
  /// Down nodes displaced from the strict preference list; each one gets a
  /// hint so it can be caught up when it rejoins.
  std::vector<std::uint32_t> hinted;
};

/// Used by CoopCluster::set/iqset to plan a fanned-out write.
/// `ring_order` is the FULL ring preference order for the key
/// (HashRing::nodes_for(key, node_count)); `is_live(node)` says whether a
/// node can take writes right now.
template <class IsLive>
[[nodiscard]] SloppyWritePlan plan_sloppy_write(
    const std::vector<std::uint32_t>& ring_order, std::size_t replication,
    IsLive&& is_live) {
  SloppyWritePlan plan;
  plan.targets.reserve(replication);
  for (std::size_t i = 0; i < ring_order.size(); ++i) {
    const std::uint32_t node = ring_order[i];
    if (is_live(node)) {
      if (plan.targets.size() < replication) plan.targets.push_back(node);
    } else if (i < replication) {
      plan.hinted.push_back(node);
    }
    // Done once the quorum is full AND the strict preference prefix has
    // been scanned for down nodes to hint.
    if (plan.targets.size() >= replication && i + 1 >= replication) break;
  }
  return plan;
}

/// Anti-entropy target selection for one under-replicated key: the live
/// ring-preferred nodes that do not yet hold it, in preference order, just
/// enough to bring the live copy count up to `want`. Used by
/// CoopCluster::repair_tick.
template <class IsLive, class Holds>
[[nodiscard]] std::vector<std::uint32_t> plan_key_repair_targets(
    const std::vector<std::uint32_t>& ring_order, std::size_t want,
    std::size_t live_copies, IsLive&& is_live, Holds&& holds) {
  std::vector<std::uint32_t> targets;
  for (const std::uint32_t node : ring_order) {
    if (live_copies + targets.size() >= want) break;
    if (!is_live(node) || holds(node)) continue;
    targets.push_back(node);
  }
  return targets;
}

/// Optional background thread driving a repair tick on a fixed interval
/// (live deployments; tests and figures step repair_tick() manually for
/// determinism). No mutex on purpose: an atomic stop flag plus a sliced
/// sleep keep it entirely outside the lock-rank hierarchy.
class RepairDriver {
 public:
  /// Starts the thread immediately; `tick` must stay callable until stop().
  RepairDriver(std::function<void()> tick, std::chrono::milliseconds interval);
  ~RepairDriver();
  RepairDriver(const RepairDriver&) = delete;
  RepairDriver& operator=(const RepairDriver&) = delete;

  /// Idempotent; joins the thread. No tick runs after stop() returns.
  void stop();

  [[nodiscard]] std::uint64_t ticks_fired() const noexcept {
    return ticks_.load(std::memory_order_relaxed);
  }

 private:
  void run();

  std::function<void()> tick_;
  std::chrono::milliseconds interval_;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> ticks_{0};
  std::thread thread_;
};

}  // namespace camp::kvs
