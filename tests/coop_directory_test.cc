#include "coop/directory.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "util/rng.h"

namespace camp::coop {
namespace {

TEST(ReplicaDirectory, AddRemoveRoundTrip) {
  ReplicaDirectory dir;
  dir.add("k1", 10);
  EXPECT_TRUE(dir.holds("k1", 10));
  EXPECT_EQ(dir.replica_count("k1"), 1u);
  EXPECT_TRUE(dir.remove("k1", 10)) << "removing the only copy drops the last";
  EXPECT_FALSE(dir.holds("k1", 10));
  EXPECT_TRUE(dir.snapshot().empty());
}

TEST(ReplicaDirectory, DuplicateAddIsNoOp) {
  ReplicaDirectory dir;
  dir.add("k1", 10);
  dir.add("k1", 10);
  EXPECT_EQ(dir.replica_count("k1"), 1u);
  EXPECT_EQ(dir.total_replicas(), 1u);
}

TEST(ReplicaDirectory, LastReplicaSemantics) {
  ReplicaDirectory dir;
  dir.add("k1", 10);
  dir.add("k1", 11);
  EXPECT_EQ(dir.holders_of("k1"), (std::vector<std::uint32_t>{10, 11}));
  EXPECT_FALSE(dir.remove("k1", 11)) << "a second copy remains";
  EXPECT_EQ(dir.holders_of("k1"), (std::vector<std::uint32_t>{10}));
  EXPECT_TRUE(dir.remove("k1", 10));
}

TEST(ReplicaDirectory, RemoveUntrackedIsSilent) {
  ReplicaDirectory dir;
  EXPECT_FALSE(dir.remove("k1", 10));
  dir.add("k1", 10);
  EXPECT_FALSE(dir.remove("k1", 99));  // wrong node
  EXPECT_EQ(dir.replica_count("k1"), 1u);
}

TEST(ReplicaDirectory, AnyHolderRespectsExclusion) {
  ReplicaDirectory dir;
  dir.add("k1", 10);
  EXPECT_EQ(dir.any_holder("k1"), std::optional<std::uint32_t>(10));
  EXPECT_EQ(dir.any_holder("k1", 10), std::nullopt);
  dir.add("k1", 11);
  const auto other = dir.any_holder("k1", 10);
  ASSERT_TRUE(other.has_value());
  EXPECT_EQ(*other, 11u);
  EXPECT_EQ(dir.any_holder("k2"), std::nullopt);
}

TEST(ReplicaDirectory, RemoveNodeReportsOrphans) {
  ReplicaDirectory dir;
  dir.add("k1", 10);  // orphaned when 10 leaves
  dir.add("k2", 10);
  dir.add("k2", 11);  // survives on 11
  dir.add("k3", 11);  // untouched
  auto orphans = dir.remove_node(10);
  ASSERT_EQ(orphans.size(), 1u);
  EXPECT_EQ(orphans[0], "k1");
  EXPECT_EQ(dir.replica_count("k2"), 1u);
  EXPECT_EQ(dir.holders_of("k2"), (std::vector<std::uint32_t>{11}));
  EXPECT_EQ(dir.total_replicas(), 2u);
}

TEST(ReplicaDirectory, MatchesSetModelUnderRandomOps) {
  // Property check against a brute-force model: map<key, set<node>>.
  ReplicaDirectory dir;
  std::map<std::string, std::set<std::uint32_t>> model;
  util::Xoshiro256 rng(17);
  for (int i = 0; i < 20'000; ++i) {
    // Appended, not `"k" + to_string`: GCC 12 misfires -Wrestrict on that.
    std::string key = "k";
    key += std::to_string(rng.below(50));
    const std::uint32_t node = static_cast<std::uint32_t>(rng.below(6));
    switch (rng.below(3)) {
      case 0: {
        dir.add(key, node);
        model[key].insert(node);
        break;
      }
      case 1: {
        const bool was_last =
            model.contains(key) && model[key] == std::set<std::uint32_t>{node};
        ASSERT_EQ(dir.remove(key, node), was_last) << "op " << i;
        if (model.contains(key)) {
          model[key].erase(node);
          if (model[key].empty()) model.erase(key);
        }
        break;
      }
      default: {
        const auto it = model.find(key);
        const std::size_t expected = it == model.end() ? 0 : it->second.size();
        ASSERT_EQ(dir.replica_count(key), expected) << "op " << i;
        ASSERT_EQ(dir.holds(key, node),
                  it != model.end() && it->second.contains(node))
            << "op " << i;
        break;
      }
    }
  }
  std::size_t model_total = 0;
  for (const auto& [k, nodes] : model) model_total += nodes.size();
  EXPECT_EQ(dir.total_replicas(), model_total);
  EXPECT_EQ(dir.snapshot().size(), model.size());
}

}  // namespace
}  // namespace camp::coop
