#include "kvs/compress.h"

#include <algorithm>
#include <bit>
#include <cstring>

namespace camp::kvs {

namespace {

// ---- BDI: base + narrow signed deltas over 8-byte LE words ---------------
//
// Encoding: [delta_width:1][base:8 LE][deltas: n_words * width][tail bytes]
// where n_words = raw_len / 8 and the tail is the raw_len % 8 trailing
// bytes copied verbatim. The first word's delta is always 0 but is encoded
// anyway — the uniform layout lets the decoder derive every offset from
// raw_len alone and verify the stored size exactly.

constexpr std::size_t kBdiFrameBytes = 1 + 8;  // width byte + base word

std::uint64_t load_le64(const char* p) {
  std::uint64_t word = 0;
  std::memcpy(&word, p, sizeof(word));
  return word;  // the tree targets little-endian (x86-64/aarch64 linux)
}

void store_le64(char* p, std::uint64_t word) {
  std::memcpy(p, &word, sizeof(word));
}

/// Does the wrapping delta fit in a signed `width`-byte integer?
bool delta_fits(std::uint64_t delta, std::size_t width) {
  const auto signed_delta = static_cast<std::int64_t>(delta);
  const std::int64_t half = std::int64_t{1} << (8 * width - 1);
  return signed_delta >= -half && signed_delta < half;
}

bool bdi_compress(std::string_view raw, std::string& out) {
  const std::size_t n_words = raw.size() / 8;
  const std::size_t tail = raw.size() % 8;
  if (n_words < 2) return false;  // nothing to delta against
  const std::uint64_t base = load_le64(raw.data());
  std::size_t width = 1;
  for (std::size_t i = 0; i < n_words; ++i) {
    const std::uint64_t delta = load_le64(raw.data() + i * 8) - base;
    while (width < 8 && !delta_fits(delta, width)) {
      width = width == 1 ? 2 : 4;
      if (width == 4 && !delta_fits(delta, width)) return false;
    }
    if (!delta_fits(delta, width)) return false;
  }
  const std::size_t encoded = kBdiFrameBytes + n_words * width + tail;
  if (encoded >= raw.size()) return false;
  out.resize(encoded);
  out[0] = static_cast<char>(width);
  store_le64(out.data() + 1, base);
  char* deltas = out.data() + kBdiFrameBytes;
  for (std::size_t i = 0; i < n_words; ++i) {
    const std::uint64_t delta = load_le64(raw.data() + i * 8) - base;
    std::memcpy(deltas + i * width, &delta, width);  // LE truncation
  }
  std::memcpy(out.data() + kBdiFrameBytes + n_words * width,
              raw.data() + n_words * 8, tail);
  return true;
}

bool bdi_decompress(std::string_view stored, std::size_t raw_len,
                    std::string& out) {
  if (stored.size() < kBdiFrameBytes) return false;
  const std::size_t width = static_cast<unsigned char>(stored[0]);
  if (width != 1 && width != 2 && width != 4) return false;
  const std::size_t n_words = raw_len / 8;
  const std::size_t tail = raw_len % 8;
  if (n_words < 2) return false;
  if (stored.size() != kBdiFrameBytes + n_words * width + tail) return false;
  const std::uint64_t base = load_le64(stored.data() + 1);
  out.resize(raw_len);
  const char* deltas = stored.data() + kBdiFrameBytes;
  for (std::size_t i = 0; i < n_words; ++i) {
    std::uint64_t delta = 0;
    std::memcpy(&delta, deltas + i * width, width);
    // Sign-extend the narrow LE delta.
    const std::size_t shift = 64 - 8 * width;
    delta = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(delta << shift) >> shift);
    store_le64(out.data() + i * 8, base + delta);
  }
  std::memcpy(out.data() + n_words * 8,
              stored.data() + kBdiFrameBytes + n_words * width, tail);
  return true;
}

// ---- RLE: PackBits-style control-byte framing ----------------------------
//
// Control c in 0..127: copy the next c+1 literal bytes.
// Control c in 129..255: repeat the next byte 257-c times (2..128 copies).
// Control 128 is reserved and rejected on decode.

constexpr std::size_t kMaxRun = 128;

// The encoder scans a 64-bit word at a time: a little-endian load puts the
// byte at the lowest address in the low bits, so std::countr_zero of a
// mismatch mask, divided by 8, is the offset of the first mismatching byte.
static_assert(std::endian::native == std::endian::little,
              "the word-at-a-time RLE scan assumes little-endian loads");

constexpr std::uint64_t kOnes = 0x0101010101010101ull;
constexpr std::uint64_t kLow7 = 0x7f7f7f7f7f7f7f7full;

/// High bit set in exactly the bytes of `x` that are zero. Unlike the
/// (x - 0x01..) & ~x trick this has no borrow between bytes, so every bit
/// of the mask is exact.
std::uint64_t zero_byte_mask(std::uint64_t x) {
  return ~(((x & kLow7) + kLow7) | x | kLow7);
}

/// Length of the repeat run at i: 1 + the bytes after raw[i] equal to it,
/// capped at kMaxRun and at the end of the input.
std::size_t run_length_at(std::string_view raw, std::size_t i) {
  const char* p = raw.data();
  const std::size_t end = i + std::min(kMaxRun, raw.size() - i);
  const std::uint64_t broadcast = kOnes * static_cast<unsigned char>(p[i]);
  std::size_t j = i + 1;
  for (; j + 8 <= end; j += 8) {
    const std::uint64_t diff = load_le64(p + j) ^ broadcast;
    if (diff != 0) return j - i + std::countr_zero(diff) / 8;
  }
  while (j < end && p[j] == p[i]) ++j;
  return j - i;
}

/// End of the literal starting at `start`: the first position p at which
/// three equal bytes begin, else the 128-byte cap or the end of the input.
/// Word step: byte k of (a^b)|(a^c) is zero exactly when raw[i+k],
/// raw[i+k+1] and raw[i+k+2] are equal. A step never covers a position at
/// or past `end`: the cap is a multiple of 8 from `start`, and a step
/// needs i + 10 <= size.
std::size_t literal_end(std::string_view raw, std::size_t start) {
  const char* p = raw.data();
  const std::size_t size = raw.size();
  const std::size_t end = start + std::min(kMaxRun, size - start);
  std::size_t i = start;
  for (; i < end && i + 10 <= size; i += 8) {
    const std::uint64_t a = load_le64(p + i);
    const std::uint64_t b = load_le64(p + i + 1);
    const std::uint64_t c = load_le64(p + i + 2);
    const std::uint64_t triples = zero_byte_mask((a ^ b) | (a ^ c));
    if (triples != 0) return i + std::countr_zero(triples) / 8;
  }
  while (i < end && !(i + 2 < size && p[i] == p[i + 1] && p[i] == p[i + 2])) {
    ++i;
  }
  return i;
}

/// Worst case: every byte sits in a literal, one control byte per 128.
std::size_t rle_bound(std::size_t raw_len) {
  return raw_len + raw_len / kMaxRun + 1;
}

void rle_compress(std::string_view raw, std::string& out) {
  out.resize(rle_bound(raw.size()));
  char* o = out.data();
  std::size_t i = 0;
  while (i < raw.size()) {
    const std::size_t run = run_length_at(raw, i);
    if (run >= 3) {
      *o++ = static_cast<char>(257 - run);
      *o++ = raw[i];
      i += run;
      continue;
    }
    // Literal run: extend until the next worthwhile repeat run (>= 3) or
    // the 128-byte control limit.
    const std::size_t start = i;
    i = literal_end(raw, start);
    *o++ = static_cast<char>(i - start - 1);
    std::memcpy(o, raw.data() + start, i - start);
    o += i - start;
  }
  out.resize(static_cast<std::size_t>(o - out.data()));
}

bool rle_decompress(std::string_view stored, std::size_t raw_len,
                    std::string& out) {
  // A 2-byte repeat frame expands to at most kMaxRun bytes, so no valid
  // stream decodes past this; checked before reserving raw_len.
  if (raw_len > stored.size() * (kMaxRun / 2)) return false;
  out.clear();
  out.reserve(raw_len);
  std::size_t i = 0;
  while (i < stored.size()) {
    const auto control = static_cast<unsigned char>(stored[i++]);
    if (control < 128) {
      const std::size_t count = std::size_t{control} + 1;
      if (i + count > stored.size()) return false;
      if (out.size() + count > raw_len) return false;
      out.append(stored.substr(i, count));
      i += count;
    } else if (control > 128) {
      const std::size_t count = 257 - std::size_t{control};
      if (i >= stored.size()) return false;
      if (out.size() + count > raw_len) return false;
      out.append(count, stored[i++]);
    } else {
      return false;  // reserved control byte
    }
  }
  return out.size() == raw_len;
}

}  // namespace

const char* codec_name(Codec codec) {
  switch (codec) {
    case Codec::kIdentity:
      return "identity";
    case Codec::kBdi:
      return "bdi";
    case Codec::kRle:
      return "rle";
  }
  return "unknown";
}

CompressResult compress_value(std::string_view raw,
                              const CompressionConfig& config) {
  CompressResult result;
  if (!config.enabled || raw.size() < config.min_value_bytes) return result;

  std::string best;
  Codec best_codec = Codec::kIdentity;
  if (raw.size() <= config.bdi_max_bytes) {
    std::string bdi;
    if (bdi_compress(raw, bdi)) {
      best = std::move(bdi);
      best_codec = Codec::kBdi;
    }
  }
  std::string rle;
  rle_compress(raw, rle);
  if (rle.size() < raw.size() &&
      (best_codec == Codec::kIdentity || rle.size() < best.size())) {
    best = std::move(rle);
    best_codec = Codec::kRle;
  }
  if (best_codec == Codec::kIdentity || best.size() >= raw.size()) {
    return result;  // incompressible bail-out
  }
  result.codec = best_codec;
  result.data = std::move(best);
  return result;
}

bool decompress_value(Codec codec, std::string_view stored,
                      std::size_t raw_len, std::string& out) {
  switch (codec) {
    case Codec::kIdentity:
      if (stored.size() != raw_len) return false;
      out.assign(stored);
      return true;
    case Codec::kBdi:
      return bdi_decompress(stored, raw_len, out);
    case Codec::kRle:
      return rle_decompress(stored, raw_len, out);
  }
  return false;
}

}  // namespace camp::kvs
