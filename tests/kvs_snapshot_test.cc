#include "kvs/snapshot.h"

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <sstream>
#include <vector>

#include "core/camp.h"
#include "kvs/protocol.h"
#include "policy/lru.h"
#include "util/rng.h"

namespace camp::kvs {
namespace {

StoreConfig small_config(std::uint64_t bytes = 4u << 20,
                         std::size_t shards = 2) {
  StoreConfig config;
  config.shards = shards;
  config.engine.slab.memory_limit_bytes = bytes;
  return config;
}

PolicyFactory lru_factory() {
  return [](std::uint64_t cap) {
    return std::make_unique<policy::LruCache>(cap);
  };
}

PolicyFactory camp_factory() {
  return [](std::uint64_t cap) {
    core::CampConfig config;
    config.capacity_bytes = cap;
    config.precision = 5;
    return core::make_camp(config);
  };
}

/// Canonical dump for comparisons: key -> (raw value, flags, cost, ttl).
/// Decompresses each item's stored form, so two stores agree exactly when
/// their client-visible contents agree — whatever codec either one used.
using Dump = std::map<std::string,
                      std::tuple<std::string, std::uint32_t, std::uint32_t,
                                 std::uint32_t>>;
Dump dump(const KvsStore& store) {
  Dump out;
  store.for_each_item([&](const ItemView& item) {
    std::string value;
    ASSERT_TRUE(
        decompress_value(item.codec, item.stored, item.raw_len, value));
    out.emplace(std::string(item.key),
                std::make_tuple(std::move(value), item.flags, item.cost,
                                item.remaining_ttl_s));
  });
  return out;
}

TEST(Snapshot, RoundTripPreservesEverything) {
  util::ManualClock clock;
  KvsStore source(small_config(), camp_factory(), clock);
  ASSERT_TRUE(source.set("cheap", "small value", 7, 1));
  ASSERT_TRUE(source.set("pricey", std::string(3000, 'x'), 0, 10'000));
  ASSERT_TRUE(source.set("ttl", "leased", 1, 100, /*exptime_s=*/60));

  std::stringstream buffer;
  EXPECT_EQ(save_snapshot(buffer, source), 3u);

  KvsStore restored(small_config(), camp_factory(), clock);
  const SnapshotStats stats = load_snapshot(buffer, restored);
  EXPECT_EQ(stats.items_written, 3u);
  EXPECT_EQ(stats.items_loaded, 3u);
  EXPECT_EQ(stats.items_rejected, 0u);
  EXPECT_EQ(dump(source), dump(restored));

  const GetResult pricey = restored.get("pricey");
  ASSERT_TRUE(pricey.hit);
  EXPECT_EQ(pricey.value.size(), 3000u);
  EXPECT_EQ(restored.get("cheap").flags, 7u);
}

TEST(Snapshot, TtlSurvivesAndStillExpires) {
  util::ManualClock clock;
  KvsStore source(small_config(), lru_factory(), clock);
  ASSERT_TRUE(source.set("lease", "v", 0, 1, /*exptime_s=*/10));

  std::stringstream buffer;
  save_snapshot(buffer, source);
  KvsStore restored(small_config(), lru_factory(), clock);
  load_snapshot(buffer, restored);

  EXPECT_TRUE(restored.get("lease").hit);
  clock.advance_ns(11ull * 1'000'000'000ull);
  EXPECT_FALSE(restored.get("lease").hit) << "snapshot must not grant "
                                             "immortality to leased pairs";
}

TEST(Snapshot, ExpiredPairsAreNotWritten) {
  util::ManualClock clock;
  KvsStore source(small_config(), lru_factory(), clock);
  ASSERT_TRUE(source.set("gone", "v", 0, 1, /*exptime_s=*/1));
  ASSERT_TRUE(source.set("kept", "v", 0, 1));
  clock.advance_ns(2ull * 1'000'000'000ull);

  std::stringstream buffer;
  EXPECT_EQ(save_snapshot(buffer, source), 1u);
  KvsStore restored(small_config(), lru_factory(), clock);
  const SnapshotStats stats = load_snapshot(buffer, restored);
  EXPECT_EQ(stats.items_loaded, 1u);
  EXPECT_TRUE(restored.get("kept").hit);
  EXPECT_FALSE(restored.get("gone").hit);
}

TEST(Snapshot, LoadIntoSmallerStoreHonoursLimits) {
  util::ManualClock clock;
  KvsStore source(small_config(16u << 20, 1), lru_factory(), clock);
  for (int i = 0; i < 2'000; ++i) {
    ASSERT_TRUE(source.set("bulk" + std::to_string(i),
                           std::string(4'000, 'b'), 0, 1));
  }
  std::stringstream buffer;
  const auto written = save_snapshot(buffer, source);
  ASSERT_GT(written, 100u);

  // A store a fraction of the size: the load must complete, admitting what
  // fits and evicting/rejecting the rest — never overflowing.
  KvsStore tiny(small_config(2u << 20, 1), lru_factory(), clock);
  const SnapshotStats stats = load_snapshot(buffer, tiny);
  EXPECT_EQ(stats.items_written, written);
  EXPECT_EQ(stats.items_loaded + stats.items_rejected, written);
  EXPECT_LT(tiny.aggregated_stats().items, written);
  EXPECT_GT(tiny.aggregated_stats().items, 0u);
}

TEST(Snapshot, RejectsGarbageAndTruncation) {
  util::ManualClock clock;
  KvsStore store(small_config(), lru_factory(), clock);
  {
    std::stringstream garbage("definitely not a snapshot");
    EXPECT_THROW(load_snapshot(garbage, store), std::runtime_error);
  }
  {
    // Valid header, truncated body.
    KvsStore source(small_config(), lru_factory(), clock);
    ASSERT_TRUE(source.set("k", "a long enough value", 0, 1));
    std::stringstream buffer;
    save_snapshot(buffer, source);
    const std::string full = buffer.str();
    std::stringstream cut(full.substr(0, full.size() - 5));
    EXPECT_THROW(load_snapshot(cut, store), std::runtime_error);
  }
}

TEST(Snapshot, EmptyStoreRoundTrips) {
  util::ManualClock clock;
  KvsStore source(small_config(), lru_factory(), clock);
  std::stringstream buffer;
  EXPECT_EQ(save_snapshot(buffer, source), 0u);
  KvsStore restored(small_config(), lru_factory(), clock);
  const SnapshotStats stats = load_snapshot(buffer, restored);
  EXPECT_EQ(stats.items_loaded, 0u);
  EXPECT_EQ(restored.aggregated_stats().items, 0u);
}

TEST(Snapshot, FileRoundTrip) {
  util::ManualClock clock;
  KvsStore source(small_config(), camp_factory(), clock);
  ASSERT_TRUE(source.set("disk", "persisted", 3, 500));
  const std::string path = ::testing::TempDir() + "camp_snapshot_test.bin";
  EXPECT_EQ(save_snapshot_file(path, source), 1u);
  KvsStore restored(small_config(), camp_factory(), clock);
  EXPECT_EQ(load_snapshot_file(path, restored).items_loaded, 1u);
  EXPECT_EQ(restored.get("disk").value, "persisted");
  EXPECT_THROW(load_snapshot_file("/no/such/snapshot.bin", restored),
               std::runtime_error);
  std::remove(path.c_str());
}

TEST(Snapshot, MixedCodecsRestoreVerbatim) {
  // A compressed store holds pairs under all three codecs at once (runs ->
  // RLE, clustered counters -> BDI, random -> identity bail). The snapshot
  // must persist each STORED form with its tag and restore it verbatim —
  // no decompress/recompress round-trip — so the restored store's stored
  // forms (not just its values) match the source byte for byte.
  util::ManualClock clock;
  StoreConfig config = small_config();
  config.engine.compression.enabled = true;
  KvsStore source(config, camp_factory(), clock);

  ASSERT_TRUE(source.set("rle", std::string(5'000, 'z'), 1, 10));
  std::string structured(512, '\0');
  for (std::size_t i = 0; i < structured.size(); i += 8) {
    const std::uint64_t word = 0x0102030405060708ull + i;
    std::memcpy(structured.data() + i, &word, 8);
  }
  ASSERT_TRUE(source.set("bdi", structured, 2, 20));
  util::Xoshiro256 rng(0x5eedf00d);
  std::string random(512, '\0');
  for (char& c : random) c = static_cast<char>(rng.next() & 0xff);
  ASSERT_TRUE(source.set("raw", random, 3, 30, /*exptime_s=*/120));

  std::map<std::string, std::pair<std::string, Codec>> source_stored;
  source.for_each_item([&](const ItemView& item) {
    source_stored.emplace(std::string(item.key),
                          std::make_pair(std::string(item.stored),
                                         item.codec));
  });
  ASSERT_EQ(source_stored.at("rle").second, Codec::kRle);
  ASSERT_EQ(source_stored.at("bdi").second, Codec::kBdi);
  ASSERT_EQ(source_stored.at("raw").second, Codec::kIdentity);

  std::stringstream buffer;
  EXPECT_EQ(save_snapshot(buffer, source), 3u);
  // Restore into a compression-OFF store: the compressed forms must still
  // land verbatim (set_stored keeps non-identity payloads as-is).
  KvsStore restored(small_config(), camp_factory(), clock);
  const SnapshotStats stats = load_snapshot(buffer, restored);
  EXPECT_EQ(stats.items_loaded, 3u);
  EXPECT_EQ(dump(source), dump(restored));
  restored.for_each_item([&](const ItemView& item) {
    const auto& [stored, codec] = source_stored.at(std::string(item.key));
    EXPECT_EQ(item.codec, codec);
    EXPECT_EQ(item.stored, stored) << "stored form must restore verbatim";
  });
  // Client-visible reads come back decompressed, TTL intact.
  EXPECT_EQ(restored.get("rle").value, std::string(5'000, 'z'));
  EXPECT_EQ(restored.get("bdi").value, structured);
  clock.advance_ns(121ull * 1'000'000'000ull);
  EXPECT_FALSE(restored.get("raw").hit);
}

TEST(Snapshot, RejectsCorruptCompressedItem) {
  util::ManualClock clock;
  StoreConfig config = small_config();
  config.engine.compression.enabled = true;
  KvsStore source(config, camp_factory(), clock);
  ASSERT_TRUE(source.set("zip", std::string(4'096, 'q'), 0, 1));
  std::stringstream buffer;
  save_snapshot(buffer, source);
  std::string bytes = buffer.str();
  // Smash the final RLE control byte (stream tail is ...[control][byte])
  // into the reserved 0x80: the payload no longer decodes, and the load
  // must throw rather than plant a pair that poisons every future read.
  ASSERT_GE(bytes.size(), 2u);
  bytes[bytes.size() - 2] = '\x80';
  std::stringstream corrupt(bytes);
  KvsStore restored(config, camp_factory(), clock);
  EXPECT_THROW(load_snapshot(corrupt, restored), std::runtime_error);
}

/// A CAMPSNP2 header with one item whose header fields are given: 41
/// bytes, no payload.
std::string one_item_header(std::uint32_t key_len, std::uint32_t raw_len,
                            std::uint32_t stored_len, std::uint8_t codec) {
  std::string bytes(kSnapshotMagic, sizeof(kSnapshotMagic));
  const auto put32 = [&bytes](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      bytes.push_back(static_cast<char>(v >> (8 * i)));
    }
  };
  for (int i = 0; i < 8; ++i) bytes.push_back(i == 0 ? 1 : 0);  // count u64
  put32(key_len);
  put32(raw_len);
  put32(stored_len);
  bytes.push_back(static_cast<char>(codec));
  put32(0);  // flags
  put32(1);  // cost
  put32(0);  // ttl
  return bytes;
}

/// load_snapshot must throw std::runtime_error whose message names `what`.
void expect_load_error(const std::string& bytes, const std::string& what) {
  util::ManualClock clock;
  KvsStore store(small_config(), lru_factory(), clock);
  std::stringstream in(bytes);
  try {
    (void)load_snapshot(in, store);
    ADD_FAILURE() << "loaded; expected an error naming '" << what << "'";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
        << e.what();
  }
}

TEST(Snapshot, RejectsOversizedLengthsBeforeAllocating) {
  // Each header asks for up to 4 GiB; the load must refuse on the length
  // alone, not allocate and then trip over the missing payload.
  ASSERT_EQ(one_item_header(0, 0, 0, 0).size(), 41u);
  expect_load_error(one_item_header(0xffffffffu, 4, 4, 0), "key length");
  expect_load_error(one_item_header(kMaxKeyLength + 1, 4, 4, 0),
                    "key length");
  expect_load_error(one_item_header(1, 0xffffffffu, 0xffffffffu, 0),
                    "value length");
  expect_load_error(one_item_header(1, 4, 0xffffffffu, 2), "value length");
  expect_load_error(one_item_header(1, kMaxValueBytes + 1, 2, 2),
                    "value length");
  // In range but with no payload behind it: plain truncation.
  expect_load_error(one_item_header(kMaxKeyLength, kMaxValueBytes,
                                    kMaxValueBytes, 0),
                    "truncated");
  // An identity item must store exactly its raw bytes.
  expect_load_error(one_item_header(1, 5, 4, 0) + "k" + "abcd", "identity");
}

TEST(Snapshot, MutatedAndTruncatedStreamsLoadOrThrow) {
  // A CAMPSNP2 stream holding RLE, BDI and identity items, then every
  // truncation of it and a deterministic corpus of byte mutations: each
  // input either loads or throws std::runtime_error (any other exception
  // fails the test; a crash or over-read fails it under the sanitizers).
  util::ManualClock clock;
  StoreConfig config = small_config();
  config.engine.compression.enabled = true;
  KvsStore source(config, camp_factory(), clock);
  ASSERT_TRUE(source.set("rle", std::string(300, 'z') + "tail", 1, 10));
  std::string structured(256, '\0');
  for (std::size_t i = 0; i < structured.size(); i += 8) {
    const std::uint64_t word = 0x0102030405060708ull + i;
    std::memcpy(structured.data() + i, &word, 8);
  }
  ASSERT_TRUE(source.set("bdi", structured, 2, 20));
  util::Xoshiro256 rng(0x51a95);
  std::string random(200, '\0');
  for (char& c : random) c = static_cast<char>(rng.next() & 0xff);
  ASSERT_TRUE(source.set("raw", random, 3, 30, /*exptime_s=*/120));
  std::map<Codec, int> codecs;
  source.for_each_item([&](const ItemView& item) { ++codecs[item.codec]; });
  ASSERT_EQ(codecs.size(), 3u) << "the stream must hold all three codecs";

  std::stringstream buffer;
  ASSERT_EQ(save_snapshot(buffer, source), 3u);
  const std::string full = buffer.str();

  const auto load_or_throw = [&](const std::string& bytes) {
    KvsStore target(config, camp_factory(), clock);
    std::stringstream in(bytes);
    try {
      (void)load_snapshot(in, target);
    } catch (const std::runtime_error&) {
      return false;
    }
    // Whatever loaded must read back without a decode failure.
    std::vector<std::string> keys;
    target.for_each_item(
        [&](const ItemView& item) { keys.emplace_back(item.key); });
    for (const std::string& key : keys) EXPECT_TRUE(target.get(key).hit);
    EXPECT_EQ(target.aggregated_stats().decompress_failures, 0u);
    return true;
  };

  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    EXPECT_FALSE(load_or_throw(full.substr(0, cut))) << "cut at " << cut;
  }
  int loaded = 0;
  for (int iter = 0; iter < 1500; ++iter) {
    std::string bytes = full;
    if (iter % 3 == 0) {
      // Overwrite one aligned-or-not u32 with an extreme length.
      const std::size_t at = rng.next() % (bytes.size() - 3);
      const std::uint32_t v = iter % 2 ? 0xffffffffu : kMaxValueBytes + 1;
      std::memcpy(bytes.data() + at, &v, 4);
    } else {
      const int flips = 1 + static_cast<int>(rng.next() % 3);
      for (int f = 0; f < flips; ++f) {
        bytes[rng.next() % bytes.size()] ^=
            static_cast<char>(1 + rng.next() % 255);
      }
    }
    loaded += load_or_throw(bytes) ? 1 : 0;
  }
  // Payload flips that keep a valid encoding (identity bytes, flags,
  // cost) load; header damage throws. Both must be seen.
  EXPECT_GT(loaded, 0);
  EXPECT_LT(loaded, 1500);
}

TEST(Snapshot, LoadsV1FormatAsIdentity) {
  // Hand-build a CAMPSNP1 stream (the pre-compression format: value_len in
  // the second field, no stored_len/codec) — old files keep loading, and
  // their values replay through set() under the target's own config.
  const std::string key = "legacy";
  const std::string value = "pre-compression bytes";
  std::string bytes(kSnapshotMagicV1, sizeof(kSnapshotMagicV1));
  const auto put32 = [&bytes](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      bytes.push_back(static_cast<char>(v >> (8 * i)));
    }
  };
  for (int i = 0; i < 8; ++i) bytes.push_back(i == 0 ? 1 : 0);  // count u64
  put32(static_cast<std::uint32_t>(key.size()));
  put32(static_cast<std::uint32_t>(value.size()));
  put32(9);   // flags
  put32(77);  // cost
  put32(0);   // ttl
  bytes += key;
  bytes += value;

  util::ManualClock clock;
  KvsStore restored(small_config(), camp_factory(), clock);
  std::stringstream in(bytes);
  EXPECT_EQ(load_snapshot(in, restored).items_loaded, 1u);
  const GetResult r = restored.get("legacy");
  ASSERT_TRUE(r.hit);
  EXPECT_EQ(r.value, value);
  EXPECT_EQ(r.flags, 9u);
  EXPECT_EQ(r.cost, 77u);
}

TEST(Snapshot, WarmRestartKeepsCostlyPairsWorking) {
  // The point of the feature: after a "restart", the expensive pair is
  // still served from memory and CAMP still knows it is expensive (a
  // churn burst evicts the cheap pairs first, as live traffic would).
  // The store spans several slabs so the churn class recycles its own
  // chunks through policy evictions; a single-slab store would fall back
  // to random slab reassignment, which no policy can veto.
  util::ManualClock clock;
  KvsStore source(small_config(8u << 20, 1), camp_factory(), clock);
  ASSERT_TRUE(source.set("model", std::string(8'000, 'm'), 0, 50'000));
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(source.set("row" + std::to_string(i),
                           std::string(1'000, 'r'), 0, 1));
  }
  std::stringstream buffer;
  save_snapshot(buffer, source);

  KvsStore restarted(small_config(8u << 20, 1), camp_factory(), clock);
  load_snapshot(buffer, restarted);
  ASSERT_TRUE(restarted.get("model").hit);
  // Churn far past the memory limit with cheap pairs.
  for (int i = 0; i < 20'000; ++i) {
    restarted.set("churn" + std::to_string(i), std::string(1'000, 'c'), 0, 1);
  }
  ASSERT_GT(restarted.aggregated_policy_stats().evictions, 0u)
      << "churn never pressured the cache; weak scenario";
  EXPECT_TRUE(restarted.get("model").hit)
      << "the restored cost must still shield the expensive pair";
}

}  // namespace
}  // namespace camp::kvs
