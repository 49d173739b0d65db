#include "kvs/engine.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace camp::kvs {

namespace {

/// Seconds left on a lease, rounded UP so mid-second reads do not shorten
/// it to "expires now"; 0 when the pair never expires.
std::uint32_t remaining_ttl_s(std::uint64_t expiry_ns,
                              std::uint64_t now_ns) {
  if (expiry_ns == 0) return 0;
  return static_cast<std::uint32_t>((expiry_ns - now_ns + 999'999'999ULL) /
                                    1'000'000'000ULL);
}

}  // namespace

KvsEngine::KvsEngine(EngineConfig config, const PolicyFactory& policy_factory,
                     const util::Clock& clock)
    : config_(config),
      slab_(config.slab),
      clock_(clock),
      rng_(config.rng_seed) {
  if (config.policy_fill_fraction <= 0.0 ||
      config.policy_fill_fraction > 1.0) {
    throw std::invalid_argument("EngineConfig: bad policy_fill_fraction");
  }
  const auto budget = static_cast<std::uint64_t>(
      static_cast<double>(config.slab.memory_limit_bytes) *
      config.policy_fill_fraction);
  policy_ = policy_factory(budget);
  if (!policy_) throw std::invalid_argument("KvsEngine: null policy");
  policy_->set_eviction_listener(
      [this](policy::Key id, std::uint64_t) { on_policy_eviction(id); });
}

GetResult KvsEngine::get(std::string_view key) {
  ++stats_.gets;
  const auto it = index_.find(std::string(key));
  if (it == index_.end()) return {};
  if (it->second.expiry_ns != 0 && clock_.now_ns() >= it->second.expiry_ns) {
    // Lazy expiration: drop the stale pair and report a miss.
    ++stats_.expired;
    policy_->erase(it->second.id);
    const std::string key_copy = it->first;  // remove_item erases the node
    remove_item(key_copy, /*free_chunk=*/true);
    return {};
  }
  Item& item = it->second;
  const ItemHeader header = read_item_header(item.chunk.data);
  GetResult result;
  if (item.codec == Codec::kIdentity) {
    result.value.assign(item_stored(item.chunk.data, header));
  } else if (!decompress_value(item.codec, item_stored(item.chunk.data, header),
                               item.raw_len, result.value)) {
    // Corrupt stored bytes (a bad peer transfer that slipped past wire
    // validation): drop the pair and miss, before any hit accounting.
    ++stats_.decompress_failures;
    policy_->erase(item.id);
    const std::string key_copy = it->first;
    remove_item(key_copy, /*free_chunk=*/true);
    return {};
  }
  ++stats_.hits;
  policy_->get(item.id);  // refresh recency/priority
  result.hit = true;
  result.flags = item.flags;
  result.cost = item.cost;
  result.remaining_ttl_s = remaining_ttl_s(item.expiry_ns, clock_.now_ns());
  return result;
}

StoredGetResult KvsEngine::get_stored(std::string_view key) {
  ++stats_.gets;
  const auto it = index_.find(std::string(key));
  if (it == index_.end()) return {};
  if (it->second.expiry_ns != 0 && clock_.now_ns() >= it->second.expiry_ns) {
    ++stats_.expired;
    policy_->erase(it->second.id);
    const std::string key_copy = it->first;  // remove_item erases the node
    remove_item(key_copy, /*free_chunk=*/true);
    return {};
  }
  ++stats_.hits;
  Item& item = it->second;
  policy_->get(item.id);  // refresh recency/priority
  const ItemHeader header = read_item_header(item.chunk.data);
  StoredGetResult result;
  result.hit = true;
  result.stored.assign(item_stored(item.chunk.data, header));
  result.raw_len = item.raw_len;
  result.codec = item.codec;
  result.flags = item.flags;
  result.cost = item.cost;
  result.remaining_ttl_s = remaining_ttl_s(item.expiry_ns, clock_.now_ns());
  return result;
}

GetResult KvsEngine::iqget(std::string_view key) {
  GetResult result = get(key);
  if (!result.hit) {
    miss_timestamps_[std::string(key)] = clock_.now_ns();
  }
  return result;
}

bool KvsEngine::set(std::string_view key, std::string_view value,
                    std::uint32_t flags, std::uint32_t cost,
                    std::uint32_t exptime_s) {
  ++stats_.sets;
  forget_miss(key);
  if (key.empty() || key.size() > kMaxKeyLength) {
    ++stats_.rejected_sets;
    return false;
  }
  // Compress-on-store: the stored form (and therefore the slab class and
  // the bytes charged to the policy) is the codec's output; the bail-out
  // keeps incompressible values on the identity layout.
  CompressResult comp = compress_value(value, config_.compression);
  if (config_.compression.enabled && comp.codec == Codec::kIdentity &&
      value.size() >= config_.compression.min_value_bytes) {
    ++stats_.compress_bails;
  }
  const std::string_view stored =
      comp.codec == Codec::kIdentity ? value : std::string_view(comp.data);
  return store_internal(key, stored, static_cast<std::uint32_t>(value.size()),
                        comp.codec, flags, cost, exptime_s);
}

bool KvsEngine::set_stored(std::string_view key, std::string_view stored,
                           std::uint32_t raw_len, Codec codec,
                           std::uint32_t flags, std::uint32_t cost,
                           std::uint32_t exptime_s) {
  // Identity means "this IS the raw value": route through set() so the
  // receiving node applies its own compression config, exactly as if the
  // client had written here directly.
  if (codec == Codec::kIdentity) {
    return set(key, stored, flags, cost, exptime_s);
  }
  ++stats_.sets;
  forget_miss(key);
  if (key.empty() || key.size() > kMaxKeyLength) {
    ++stats_.rejected_sets;
    return false;
  }
  return store_internal(key, stored, raw_len, codec, flags, cost, exptime_s);
}

bool KvsEngine::store_internal(std::string_view key, std::string_view stored,
                               std::uint32_t raw_len, Codec codec,
                               std::uint32_t flags, std::uint32_t cost,
                               std::uint32_t exptime_s) {
  if (cost == 0) cost = 1;
  const std::uint64_t footprint =
      item_footprint(key.size(), stored.size(), codec);
  const auto cls = slab_.class_for(footprint);
  if (!cls) {
    ++stats_.rejected_sets;
    return false;  // larger than the biggest chunk
  }
  const std::uint64_t charged = slab_.chunk_size_of_class(*cls);

  std::string key_str(key);
  // Overwrite semantics: drop any existing copy first — including its
  // policy charge, or the stale id would keep its chunk-size accounted
  // until pressure happened to evict the phantom.
  const auto existing = index_.find(key_str);
  if (existing != index_.end()) {
    policy_->erase(existing->second.id);
    remove_item(key_str, /*free_chunk=*/true);
  }

  // Let the policy account for the pair and evict as needed (evictions call
  // back into on_policy_eviction, which frees chunks).
  const policy::Key id = next_id_++;
  id_to_key_[id] = key_str;
  pending_id_ = id;
  pending_evicted_ = false;
  if (!policy_->put(id, charged, cost)) {
    pending_id_ = 0;
    id_to_key_.erase(id);
    ++stats_.rejected_sets;
    return false;
  }

  auto chunk = allocate_with_pressure(footprint);
  pending_id_ = 0;
  if (chunk && pending_evicted_) {
    // Pressure eviction drained the whole cache — including the incoming
    // pair's accounting — before a slab reassignment finally made room.
    // Space exists now, so re-account the pair (it is not resident during
    // this put, so it cannot be picked as its own victim again).
    pending_evicted_ = !policy_->put(id, charged, cost);
  }
  if (!chunk || pending_evicted_) {
    if (chunk) slab_.free(*chunk);
    if (!pending_evicted_) policy_->erase(id);
    id_to_key_.erase(id);
    ++stats_.rejected_sets;
    return false;
  }
  write_item(chunk->data, key, stored, raw_len, codec, flags, cost);
  Item item;
  item.id = id;
  item.chunk = *chunk;
  item.raw_len = raw_len;
  item.stored_len = static_cast<std::uint32_t>(stored.size());
  item.codec = codec;
  item.flags = flags;
  item.cost = cost;
  item.expiry_ns =
      exptime_s == 0
          ? 0
          : clock_.now_ns() + static_cast<std::uint64_t>(exptime_s) *
                                  1'000'000'000ull;
  index_.emplace(std::move(key_str), item);
  ++stats_.items;
  stats_.value_bytes += raw_len;
  stats_.stored_bytes += stored.size();
  // Last, still inside the caller's shard critical section: stored and
  // evicted notifications for one key are totally ordered (see StoredHook).
  if (stored_hook_) stored_hook_(key);
  return true;
}

bool KvsEngine::iqset(std::string_view key, std::string_view value,
                      std::uint32_t flags, std::uint32_t exptime_s) {
  std::uint32_t cost = 1;
  const auto it = miss_timestamps_.find(key);
  if (it != miss_timestamps_.end()) {
    const std::uint64_t elapsed = clock_.now_ns() - it->second;
    const std::uint64_t scaled =
        elapsed / std::max<std::uint64_t>(1, config_.cost_time_divisor_ns);
    cost = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(scaled, 0xffffffffu));
    if (cost == 0) cost = 1;
    miss_timestamps_.erase(it);
  }
  return set(key, value, flags, cost, exptime_s);
}

bool KvsEngine::del(std::string_view key) {
  ++stats_.deletes;
  forget_miss(key);
  const std::string key_str(key);
  const auto it = index_.find(key_str);
  if (it == index_.end()) return false;
  policy_->erase(it->second.id);  // no eviction callback for erase
  remove_item(key_str, /*free_chunk=*/true);
  return true;
}

void KvsEngine::forget_miss(std::string_view key) {
  if (miss_timestamps_.empty()) return;
  const auto it = miss_timestamps_.find(key);
  if (it != miss_timestamps_.end()) miss_timestamps_.erase(it);
}

void KvsEngine::flush_all() {
  while (!index_.empty()) {
    const std::string key = index_.begin()->first;
    policy_->erase(index_.begin()->second.id);
    remove_item(key, /*free_chunk=*/true);
  }
  miss_timestamps_.clear();
}

bool KvsEngine::contains(std::string_view key) const {
  return index_.contains(std::string(key));
}

std::uint32_t KvsEngine::cost_of(std::string_view key) const {
  const auto it = index_.find(std::string(key));
  return it == index_.end() ? 0 : it->second.cost;
}

void KvsEngine::for_each_item(
    const std::function<void(const ItemView&)>& fn) const {
  const std::uint64_t now = clock_.now_ns();
  for (const auto& [key, item] : index_) {
    if (item.expiry_ns != 0 && now >= item.expiry_ns) continue;
    const ItemHeader header = read_item_header(item.chunk.data);
    ItemView view;
    view.key = key;
    view.stored = item_stored(item.chunk.data, header);
    view.raw_len = item.raw_len;
    view.codec = item.codec;
    view.flags = item.flags;
    view.cost = item.cost;
    view.remaining_ttl_s = remaining_ttl_s(item.expiry_ns, now);
    view.charged_bytes = item.chunk.size;
    fn(view);
  }
}

void KvsEngine::remove_item(const std::string& key, bool free_chunk) {
  const auto it = index_.find(key);
  assert(it != index_.end());
  Item& item = it->second;
  if (free_chunk) slab_.free(item.chunk);
  id_to_key_.erase(item.id);
  stats_.value_bytes -= item.raw_len;
  stats_.stored_bytes -= item.stored_len;
  --stats_.items;
  index_.erase(it);
}

void KvsEngine::on_policy_eviction(policy::Key id) {
  if (id == pending_id_ && pending_id_ != 0) {
    pending_evicted_ = true;  // the in-flight set was chosen as the victim
    return;
  }
  const auto it = id_to_key_.find(id);
  if (it == id_to_key_.end()) return;  // already gone
  notify_eviction(it->second);
  remove_item(it->second, /*free_chunk=*/true);
}

void KvsEngine::notify_eviction(const std::string& key) {
  if (!eviction_hook_) return;
  const auto it = index_.find(key);
  if (it == index_.end()) return;
  const Item& item = it->second;
  const std::uint64_t now = clock_.now_ns();
  // An already-lapsed pair is dead weight: dropping it loses nothing, so
  // the hook (and the cluster's guard) never sees it.
  if (item.expiry_ns != 0 && now >= item.expiry_ns) return;
  const ItemHeader header = read_item_header(item.chunk.data);
  EvictedItem evicted;
  evicted.key = key;
  evicted.stored = item_stored(item.chunk.data, header);
  evicted.raw_len = item.raw_len;
  evicted.codec = item.codec;
  evicted.flags = item.flags;
  evicted.cost = item.cost;
  evicted.charged_bytes = item.chunk.size;
  evicted.remaining_ttl_s = remaining_ttl_s(item.expiry_ns, now);
  eviction_hook_(evicted);
}

std::optional<slab::Chunk> KvsEngine::allocate_with_pressure(
    std::uint64_t footprint) {
  if (auto chunk = slab_.allocate(footprint)) return chunk;
  // First pressure valve: let the POLICY pick victims (the paper's step 4,
  // "evict an existing key-value pair using LRU [or CAMP] and replace its
  // contents"). Victims free their chunks via the eviction listener; keep
  // evicting until a chunk of the needed class frees up or the policy runs
  // dry. This is what makes LRU and CAMP behave differently in the KVS.
  constexpr int kMaxPolicyEvictions = 2048;
  for (int i = 0; i < kMaxPolicyEvictions; ++i) {
    if (!policy_->evict_one()) break;
    if (auto chunk = slab_.allocate(footprint)) return chunk;
  }
  // Second valve: the class itself is starved of slabs (calcification).
  // Apply twemcache's remedy: reassign a random slab from another class,
  // invalidating its residents.
  const auto cls = slab_.class_for(footprint);
  assert(cls.has_value());
  for (int attempt = 0; attempt < 4; ++attempt) {
    const bool reassigned = slab_.reassign_slab(
        *cls, rng_, [this](const slab::Chunk& victim_chunk) {
          const ItemHeader header = read_item_header(victim_chunk.data);
          const std::string key(item_key(victim_chunk.data, header));
          const auto it = index_.find(key);
          if (it == index_.end()) return;
          policy_->erase(it->second.id);
          notify_eviction(key);  // pressure drop, same as a policy eviction
          // The chunk is being re-carved: do NOT free it back to its class.
          remove_item(key, /*free_chunk=*/false);
        });
    if (!reassigned) break;
    ++stats_.slab_reassignments;
    if (auto chunk = slab_.allocate(footprint)) return chunk;
  }
  return std::nullopt;
}

}  // namespace camp::kvs
