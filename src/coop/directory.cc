#include "coop/directory.h"

#include <algorithm>

namespace camp::coop {

void ReplicaDirectory::add(const Key& key, NodeId node) {
  auto& nodes = holders_[key];
  if (std::find(nodes.begin(), nodes.end(), node) != nodes.end()) return;
  nodes.push_back(node);
  ++total_replicas_;
}

bool ReplicaDirectory::remove(const Key& key, NodeId node) {
  const auto it = holders_.find(key);
  if (it == holders_.end()) return false;
  auto& nodes = it->second;
  const auto pos = std::find(nodes.begin(), nodes.end(), node);
  if (pos == nodes.end()) return false;
  nodes.erase(pos);
  --total_replicas_;
  if (nodes.empty()) {
    holders_.erase(it);
    return true;
  }
  return false;
}

std::vector<std::string> ReplicaDirectory::remove_node(NodeId node) {
  std::vector<Key> orphaned;
  for (auto it = holders_.begin(); it != holders_.end();) {
    auto& nodes = it->second;
    const auto pos = std::find(nodes.begin(), nodes.end(), node);
    if (pos == nodes.end()) {
      ++it;
      continue;
    }
    nodes.erase(pos);
    --total_replicas_;
    if (nodes.empty()) {
      orphaned.push_back(it->first);
      it = holders_.erase(it);
    } else {
      ++it;
    }
  }
  // Orphans surface in hash-map order; sort so every consumer processes
  // them in a run-to-run and build-to-build deterministic order.
  std::sort(orphaned.begin(), orphaned.end());
  return orphaned;
}

bool ReplicaDirectory::holds(const Key& key, NodeId node) const {
  const auto it = holders_.find(key);
  if (it == holders_.end()) return false;
  return std::find(it->second.begin(), it->second.end(), node) !=
         it->second.end();
}

std::optional<ReplicaDirectory::NodeId> ReplicaDirectory::any_holder(
    const Key& key, std::optional<NodeId> exclude) const {
  const auto it = holders_.find(key);
  if (it == holders_.end()) return std::nullopt;
  for (const NodeId node : it->second) {
    if (!exclude || node != *exclude) return node;
  }
  return std::nullopt;
}

std::vector<ReplicaDirectory::NodeId> ReplicaDirectory::holders_of(
    const Key& key) const {
  const auto it = holders_.find(key);
  return it == holders_.end() ? std::vector<NodeId>{} : it->second;
}

std::size_t ReplicaDirectory::replica_count(const Key& key) const {
  const auto it = holders_.find(key);
  return it == holders_.end() ? 0 : it->second.size();
}

std::vector<std::pair<std::string, std::vector<ReplicaDirectory::NodeId>>>
ReplicaDirectory::snapshot() const {
  std::vector<std::pair<Key, std::vector<NodeId>>> out;
  out.reserve(holders_.size());
  for (const auto& [key, nodes] : holders_) out.emplace_back(key, nodes);
  return out;
}

}  // namespace camp::coop
