#include "kvs/snapshot.h"

#include <array>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "kvs/item.h"
#include "kvs/protocol.h"

namespace camp::kvs {

namespace {

template <class T>
void put_le(std::ostream& out, T value) {
  std::array<unsigned char, sizeof(T)> buf;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    buf[i] = static_cast<unsigned char>(value >> (8 * i));
  }
  out.write(reinterpret_cast<const char*>(buf.data()), sizeof(T));
}

template <class T>
T get_le(std::istream& in) {
  std::array<unsigned char, sizeof(T)> buf;
  in.read(reinterpret_cast<char*>(buf.data()), sizeof(T));
  if (!in) throw std::runtime_error("snapshot: truncated input");
  T value = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    value |= static_cast<T>(buf[i]) << (8 * i);
  }
  return value;
}

}  // namespace

std::uint64_t save_snapshot(std::ostream& out, const KvsStore& store) {
  // Two-pass: the count precedes the items in the format, and the store
  // only exposes iteration.
  std::uint64_t count = 0;
  store.for_each_item([&](const ItemView&) { ++count; });
  out.write(kSnapshotMagic, sizeof(kSnapshotMagic));
  put_le<std::uint64_t>(out, count);
  std::uint64_t written = 0;
  store.for_each_item([&](const ItemView& item) {
    // The resident set may shrink between the passes (expiry); pad-proof
    // by never writing more than `count` items. A growth between passes
    // cannot happen (for_each_item is const and the caller holds the
    // store single-threaded during snapshots by contract).
    if (written == count) return;
    put_le<std::uint32_t>(out, static_cast<std::uint32_t>(item.key.size()));
    put_le<std::uint32_t>(out, item.raw_len);
    put_le<std::uint32_t>(out, static_cast<std::uint32_t>(item.stored.size()));
    put_le<std::uint8_t>(out, static_cast<std::uint8_t>(item.codec));
    put_le<std::uint32_t>(out, item.flags);
    put_le<std::uint32_t>(out, item.cost);
    put_le<std::uint32_t>(out, item.remaining_ttl_s);
    out.write(item.key.data(),
              static_cast<std::streamsize>(item.key.size()));
    out.write(item.stored.data(),
              static_cast<std::streamsize>(item.stored.size()));
    ++written;
  });
  // If expiry shrank the second pass, backfill is impossible in a stream;
  // declare the file invalid rather than quietly truncating.
  if (written != count) {
    throw std::runtime_error("snapshot: resident set changed during save");
  }
  if (!out) throw std::runtime_error("snapshot: write failed");
  return written;
}

std::uint64_t save_snapshot_file(const std::string& path,
                                 const KvsStore& store) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("snapshot: cannot open " + path);
  return save_snapshot(out, store);
}

SnapshotStats load_snapshot(std::istream& in, KvsStore& store) {
  char magic[sizeof(kSnapshotMagic)];
  in.read(magic, sizeof(magic));
  if (!in) throw std::runtime_error("snapshot: bad magic");
  const bool v1 = std::memcmp(magic, kSnapshotMagicV1, sizeof(magic)) == 0;
  if (!v1 && std::memcmp(magic, kSnapshotMagic, sizeof(magic)) != 0) {
    throw std::runtime_error("snapshot: bad magic");
  }
  const auto count = get_le<std::uint64_t>(in);
  SnapshotStats stats;
  std::string key, stored;
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto key_len = get_le<std::uint32_t>(in);
    const auto raw_len = get_le<std::uint32_t>(in);
    const auto stored_len = v1 ? raw_len : get_le<std::uint32_t>(in);
    const auto codec_tag = v1 ? std::uint8_t{0} : get_le<std::uint8_t>(in);
    const auto flags = get_le<std::uint32_t>(in);
    const auto cost = get_le<std::uint32_t>(in);
    const auto ttl_s = get_le<std::uint32_t>(in);
    // Bound every length before allocating: a corrupt header must not be
    // able to ask for gigabytes ahead of the truncation check below.
    if (key_len > kMaxKeyLength) {
      throw std::runtime_error("snapshot: key length out of range");
    }
    if (raw_len > kMaxValueBytes || stored_len > kMaxValueBytes) {
      throw std::runtime_error("snapshot: value length out of range");
    }
    key.resize(key_len);
    stored.resize(stored_len);
    in.read(key.data(), key_len);
    in.read(stored.data(), stored_len);
    if (!in) throw std::runtime_error("snapshot: truncated item");
    if (!codec_tag_valid(codec_tag)) {
      throw std::runtime_error("snapshot: unknown codec tag");
    }
    if (codec_tag == 0 && stored_len != raw_len) {
      throw std::runtime_error("snapshot: identity item length mismatch");
    }
    // Compressed payloads must decode to exactly raw_len before they are
    // stored — the same validate-by-decoding rule the pset wire entry
    // applies, so a corrupt file cannot plant a pair that poisons reads.
    if (codec_tag != 0) {
      std::string decoded;
      if (!decompress_value(static_cast<Codec>(codec_tag), stored, raw_len,
                            decoded)) {
        throw std::runtime_error("snapshot: corrupt compressed item");
      }
    }
    // v2 restores the stored form verbatim (no recompress); identity and
    // every v1 item replay through set() and the target's own config.
    if (store.set_stored(key, stored, raw_len,
                         static_cast<Codec>(codec_tag), flags, cost, ttl_s)) {
      ++stats.items_loaded;
    } else {
      ++stats.items_rejected;
    }
  }
  stats.items_written = count;
  return stats;
}

SnapshotStats load_snapshot_file(const std::string& path, KvsStore& store) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("snapshot: cannot open " + path);
  return load_snapshot(in, store);
}

}  // namespace camp::kvs
