// Consistent-hash ring used by the cooperative cache cluster (kvs/cluster.h)
// to route keys to nodes. Classic Karger-style ring with virtual nodes:
// adding or removing a node remaps only the keys adjacent to its virtual
// points, which is what lets a cooperative KVS group grow and shrink
// without mass invalidation (the KOSAR-style deployment the paper names as
// future work in Section 6).
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <vector>

namespace camp::coop {

class HashRing {
 public:
  /// `virtual_nodes` points are placed per node; more points = smoother
  /// balance at the cost of a larger ring map. Throws std::invalid_argument
  /// for 0.
  explicit HashRing(std::uint32_t virtual_nodes = 64);

  /// Add a node. Adding an existing node is a no-op.
  void add_node(std::uint32_t node_id);

  /// Remove a node and its virtual points. Removing an absent node is a
  /// no-op.
  void remove_node(std::uint32_t node_id);

  /// The node owning `key` (first virtual point clockwise from the key's
  /// hash). Throws std::logic_error when the ring is empty.
  [[nodiscard]] std::uint32_t node_for(std::uint64_t key) const;

  /// The first `replicas` *distinct* nodes clockwise from the key's hash
  /// (for replication factors > 1). Returns fewer when the ring has fewer
  /// nodes.
  [[nodiscard]] std::vector<std::uint32_t> nodes_for(
      std::uint64_t key, std::size_t replicas) const;

  [[nodiscard]] std::size_t node_count() const noexcept {
    return nodes_.size();
  }

 private:
  [[nodiscard]] static std::uint64_t point_hash(std::uint32_t node_id,
                                                std::uint32_t replica) noexcept;
  [[nodiscard]] static std::uint64_t key_hash(std::uint64_t key) noexcept;

  std::uint32_t virtual_nodes_;
  std::map<std::uint64_t, std::uint32_t> ring_;  // point -> node id
  std::set<std::uint32_t> nodes_;
};

}  // namespace camp::coop
