#include "kvs/engine.h"

#include <gtest/gtest.h>

#include <vector>

#include "core/camp.h"
#include "policy/lru.h"

namespace camp::kvs {
namespace {

EngineConfig small_engine() {
  EngineConfig c;
  c.slab.memory_limit_bytes = 2u << 20;  // 2 slabs
  c.slab.slab_size_bytes = 1u << 20;
  return c;
}

PolicyFactory lru_factory() {
  return [](std::uint64_t cap) {
    return std::make_unique<policy::LruCache>(cap);
  };
}

PolicyFactory camp_factory(int precision = 5) {
  return [precision](std::uint64_t cap) {
    core::CampConfig config;
    config.capacity_bytes = cap;
    config.precision = precision;
    return core::make_camp(config);
  };
}

TEST(Engine, SetGetRoundTrip) {
  util::ManualClock clock;
  KvsEngine engine(small_engine(), lru_factory(), clock);
  ASSERT_TRUE(engine.set("hello", "world", 7, 10));
  const GetResult r = engine.get("hello");
  EXPECT_TRUE(r.hit);
  EXPECT_EQ(r.value, "world");
  EXPECT_EQ(r.flags, 7u);
  EXPECT_EQ(engine.stats().items, 1u);
  EXPECT_EQ(engine.stats().value_bytes, 5u);
}

TEST(Engine, MissReturnsEmpty) {
  util::ManualClock clock;
  KvsEngine engine(small_engine(), lru_factory(), clock);
  EXPECT_FALSE(engine.get("absent").hit);
  EXPECT_EQ(engine.stats().gets, 1u);
  EXPECT_EQ(engine.stats().hits, 0u);
}

TEST(Engine, OverwriteReplacesValue) {
  util::ManualClock clock;
  KvsEngine engine(small_engine(), lru_factory(), clock);
  ASSERT_TRUE(engine.set("k", "v1", 0, 1));
  ASSERT_TRUE(engine.set("k", "v2-longer", 0, 1));
  EXPECT_EQ(engine.get("k").value, "v2-longer");
  EXPECT_EQ(engine.stats().items, 1u);
  EXPECT_EQ(engine.stats().value_bytes, 9u);
}

TEST(Engine, DeleteRemoves) {
  util::ManualClock clock;
  KvsEngine engine(small_engine(), lru_factory(), clock);
  ASSERT_TRUE(engine.set("k", "v", 0, 1));
  EXPECT_TRUE(engine.del("k"));
  EXPECT_FALSE(engine.get("k").hit);
  EXPECT_FALSE(engine.del("k"));
  EXPECT_EQ(engine.stats().items, 0u);
}

TEST(Engine, RejectsBadKeys) {
  util::ManualClock clock;
  KvsEngine engine(small_engine(), lru_factory(), clock);
  EXPECT_FALSE(engine.set("", "v", 0, 1));
  EXPECT_FALSE(engine.set(std::string(300, 'k'), "v", 0, 1));
  EXPECT_EQ(engine.stats().rejected_sets, 2u);
}

// write_item's key_len is a uint16_t; the layout guard must refuse any key
// past kMaxKeyLength instead of silently truncating the length field into
// a chunk layout that aliases other bytes. The engine rejects such keys
// before the cast — but the guard has to hold even for a direct caller.
TEST(Engine, WriteItemRefusesOversizedKeys) {
  std::vector<std::byte> chunk(kItemHeaderSize + 2048);
  const std::string max_key(kMaxKeyLength, 'k');
  EXPECT_NO_THROW(write_item(chunk.data(), max_key, "v", 0, 1));
  const ItemHeader header = read_item_header(chunk.data());
  EXPECT_EQ(header.key_len, kMaxKeyLength);
  EXPECT_EQ(item_key(chunk.data(), header), max_key);

  const std::string oversized(kMaxKeyLength + 1, 'k');
  EXPECT_THROW(write_item(chunk.data(), oversized, "v", 0, 1),
               std::length_error);
}

// The boundary key length round-trips through the full engine path.
TEST(Engine, MaxLengthKeyRoundTrips) {
  util::ManualClock clock;
  KvsEngine engine(small_engine(), lru_factory(), clock);
  const std::string key(kMaxKeyLength, 'k');
  ASSERT_TRUE(engine.set(key, "payload", 3, 9));
  const GetResult r = engine.get(key);
  EXPECT_TRUE(r.hit);
  EXPECT_EQ(r.value, "payload");
  EXPECT_FALSE(engine.set(key + "x", "payload", 3, 9));
  EXPECT_EQ(engine.stats().rejected_sets, 1u);
}

TEST(Engine, RejectsValueBiggerThanSlab) {
  util::ManualClock clock;
  KvsEngine engine(small_engine(), lru_factory(), clock);
  const std::string huge(2u << 20, 'x');
  EXPECT_FALSE(engine.set("big", huge, 0, 1));
}

TEST(Engine, IqCostCapture) {
  util::ManualClock clock;
  EngineConfig config = small_engine();
  config.cost_time_divisor_ns = 1000;  // microseconds
  KvsEngine engine(config, camp_factory(), clock);
  // iqget miss at t=0; value computed for 5000 ns; iqset at t=5000.
  EXPECT_FALSE(engine.iqget("k").hit);
  clock.advance_ns(5000);
  ASSERT_TRUE(engine.iqset("k", "value", 0));
  // The pair's cost should be 5000/1000 = 5 cost units. We can't read the
  // cost directly, but a subsequent get must hit and the engine must not
  // have clamped oddly (smoke via stats).
  EXPECT_TRUE(engine.get("k").hit);
  // A plain iqset with no recorded miss gets cost 1 and still stores.
  ASSERT_TRUE(engine.iqset("unseen", "v", 0));
  EXPECT_TRUE(engine.get("unseen").hit);
}

TEST(Engine, PlainWriteDropsPendingIqMiss) {
  util::ManualClock clock;
  EngineConfig config = small_engine();
  config.cost_time_divisor_ns = 1000;  // microseconds
  KvsEngine engine(config, camp_factory(), clock);
  // iqget miss at t=0, answered by a plain set; one second later an iqset
  // must not charge the whole interval since that old miss.
  EXPECT_FALSE(engine.iqget("k").hit);
  ASSERT_TRUE(engine.set("k", "value", 0, 3));
  clock.advance_ns(1'000'000'000);
  ASSERT_TRUE(engine.iqset("k", "value", 0));
  EXPECT_EQ(engine.cost_of("k"), 1u);

  // The same for a delete, and for a set_stored of an encoded value.
  EXPECT_FALSE(engine.iqget("d").hit);
  EXPECT_FALSE(engine.del("d"));
  clock.advance_ns(1'000'000'000);
  ASSERT_TRUE(engine.iqset("d", "value", 0));
  EXPECT_EQ(engine.cost_of("d"), 1u);

  EXPECT_FALSE(engine.iqget("s").hit);
  ASSERT_TRUE(engine.set_stored("s", std::string("\x83q", 2), 4,
                                Codec::kRle, 0, 3));
  clock.advance_ns(1'000'000'000);
  ASSERT_TRUE(engine.iqset("s", "value", 0));
  EXPECT_EQ(engine.cost_of("s"), 1u);

  // An iqset that does answer its own miss still charges the interval.
  EXPECT_FALSE(engine.iqget("m").hit);
  clock.advance_ns(7000);
  ASSERT_TRUE(engine.iqset("m", "value", 0));
  EXPECT_EQ(engine.cost_of("m"), 7u);
}

TEST(Engine, EvictionUnderPressure) {
  util::ManualClock clock;
  EngineConfig config;
  config.slab.memory_limit_bytes = 1u << 20;  // one slab
  config.slab.slab_size_bytes = 1u << 20;
  KvsEngine engine(config, lru_factory(), clock);
  // Fill with ~1KB values until evictions start.
  const std::string value(1024, 'v');
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(engine.set("key" + std::to_string(i), value, 0, 1))
        << "set " << i << " must succeed via policy eviction";
  }
  EXPECT_GT(engine.policy_stats().evictions, 0u);
  EXPECT_LT(engine.stats().items, 2000u);
  // Recent keys resident, oldest gone (LRU).
  EXPECT_TRUE(engine.contains("key1999"));
  EXPECT_FALSE(engine.contains("key0"));
}

TEST(Engine, CampPolicyKeepsExpensivePairs) {
  util::ManualClock clock;
  EngineConfig config;
  config.slab.memory_limit_bytes = 1u << 20;
  config.slab.slab_size_bytes = 1u << 20;
  KvsEngine engine(config, camp_factory(), clock);
  const std::string value(1024, 'v');
  ASSERT_TRUE(engine.set("expensive", value, 0, 1'000'000));
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(engine.set("cheap" + std::to_string(i), value, 0, 1));
  }
  EXPECT_TRUE(engine.contains("expensive"))
      << "CAMP must shield the high-cost pair from cheap churn";
}

TEST(Engine, SlabReassignmentOnClassStarvation) {
  util::ManualClock clock;
  EngineConfig config;
  config.slab.memory_limit_bytes = 1u << 20;  // single slab: guaranteed clash
  config.slab.slab_size_bytes = 1u << 20;
  config.policy_fill_fraction = 1.0;
  KvsEngine engine(config, lru_factory(), clock);
  const std::string small_value(50, 's');
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(engine.set("s" + std::to_string(i), small_value, 0, 1));
  }
  // A large value needs a different class; the only slab belongs to the
  // small class -> reassignment must kick in.
  const std::string big_value(64 * 1024, 'b');
  EXPECT_TRUE(engine.set("big", big_value, 0, 1));
  EXPECT_GE(engine.stats().slab_reassignments, 1u);
  EXPECT_TRUE(engine.contains("big"));
}

TEST(Engine, FlushAllEmpties) {
  util::ManualClock clock;
  KvsEngine engine(small_engine(), lru_factory(), clock);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(engine.set("k" + std::to_string(i), "v", 0, 1));
  }
  engine.flush_all();
  EXPECT_EQ(engine.stats().items, 0u);
  EXPECT_EQ(engine.stats().value_bytes, 0u);
  EXPECT_FALSE(engine.get("k3").hit);
  // Engine still usable.
  EXPECT_TRUE(engine.set("fresh", "v", 0, 1));
}

TEST(Engine, ExpiryLazyRemoval) {
  util::ManualClock clock;
  KvsEngine engine(small_engine(), lru_factory(), clock);
  ASSERT_TRUE(engine.set("ttl", "v", 0, 1, /*exptime_s=*/10));
  clock.advance_ns(9'999'999'999ull);  // 9.999s: still fresh
  EXPECT_TRUE(engine.get("ttl").hit);
  clock.advance_ns(2'000'000'000ull);  // past 10s
  EXPECT_FALSE(engine.get("ttl").hit) << "expired pair reads as a miss";
  EXPECT_EQ(engine.stats().expired, 1u);
  EXPECT_EQ(engine.stats().items, 0u) << "expired pair lazily removed";
  // The chunk was freed: a fresh set of the same shape succeeds.
  EXPECT_TRUE(engine.set("ttl", "v2", 0, 1));
  EXPECT_EQ(engine.get("ttl").value, "v2");
}

TEST(Engine, ZeroExptimeNeverExpires) {
  util::ManualClock clock;
  KvsEngine engine(small_engine(), lru_factory(), clock);
  ASSERT_TRUE(engine.set("forever", "v", 0, 1, 0));
  clock.advance_ns(~0ull / 2);
  EXPECT_TRUE(engine.get("forever").hit);
}

TEST(Engine, OverwriteResetsExpiry) {
  util::ManualClock clock;
  KvsEngine engine(small_engine(), lru_factory(), clock);
  ASSERT_TRUE(engine.set("k", "v", 0, 1, /*exptime_s=*/1));
  ASSERT_TRUE(engine.set("k", "v", 0, 1, /*exptime_s=*/0));
  clock.advance_ns(5'000'000'000ull);
  EXPECT_TRUE(engine.get("k").hit) << "overwrite replaced the TTL";
}

TEST(Engine, BinaryValueSafety) {
  util::ManualClock clock;
  KvsEngine engine(small_engine(), lru_factory(), clock);
  std::string binary("\x00\x01\xff\r\n\x7f", 6);
  ASSERT_TRUE(engine.set("bin", binary, 0, 1));
  EXPECT_EQ(engine.get("bin").value, binary);
}

}  // namespace
}  // namespace camp::kvs
