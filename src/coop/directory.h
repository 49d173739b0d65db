// Replica directory for the cooperative cache cluster (kvs/cluster.h):
// which nodes hold a copy of which key. This is the metadata service a
// KOSAR-style cooperative cache coordinates through (paper Section 6); here
// it is an in-process structure the cluster keeps transactionally
// consistent with the node stores via their eviction and stored hooks.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace camp::coop {

class ReplicaDirectory {
 public:
  using Key = std::string;
  using NodeId = std::uint32_t;

  /// Record that `node` holds a replica of `key`. Duplicate adds are no-ops.
  void add(const Key& key, NodeId node);

  /// Record that `node` no longer holds `key`. Removing an untracked pair is
  /// a no-op. Returns true when this removal dropped the *last* replica.
  bool remove(const Key& key, NodeId node);

  /// Drop every entry for `node` (node decommission). Returns the keys whose
  /// last replica lived there.
  std::vector<Key> remove_node(NodeId node);

  [[nodiscard]] bool holds(const Key& key, NodeId node) const;

  /// Any holder of `key` other than `exclude` (used for peer fetches).
  [[nodiscard]] std::optional<NodeId> any_holder(
      const Key& key, std::optional<NodeId> exclude = std::nullopt) const;

  /// Every holder of `key`, in insertion order (empty when untracked).
  [[nodiscard]] std::vector<NodeId> holders_of(const Key& key) const;

  [[nodiscard]] std::size_t replica_count(const Key& key) const;
  [[nodiscard]] std::size_t total_replicas() const noexcept {
    return total_replicas_;
  }

  /// All keys with at least one replica; for invariant checks and node
  /// decommissioning, not the request path.
  [[nodiscard]] std::vector<std::pair<Key, std::vector<NodeId>>> snapshot()
      const;

 private:
  // Replica sets are tiny (a handful of nodes), so a flat vector beats a
  // set; linear scans are cache-friendly at this scale.
  std::unordered_map<Key, std::vector<NodeId>> holders_;
  std::size_t total_replicas_ = 0;
};

}  // namespace camp::coop
