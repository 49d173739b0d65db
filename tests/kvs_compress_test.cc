// Codec layer (kvs/compress.h): round-trips across value shapes, the
// incompressible bail-out, and — because decompress_value eats wire bytes
// from peers — hardened rejection of malformed encodings. The fuzz-style
// corpus hammers both directions with deterministic pseudo-random inputs:
// every compress output must decode back exactly, and no mutated encoding
// may decode to the wrong length or crash.
#include "kvs/compress.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "kvs/protocol.h"
#include "util/rng.h"

namespace camp::kvs {
namespace {

CompressionConfig enabled_config() {
  CompressionConfig config;
  config.enabled = true;
  return config;
}

/// A "small structured value": 8-byte LE counters clustered near a base —
/// the shape BDI exists for.
std::string structured_value(std::size_t words, std::uint64_t base,
                             std::uint32_t spread) {
  util::Xoshiro256 rng(0xbd1bd1);
  std::string raw(words * 8, '\0');
  for (std::size_t i = 0; i < words; ++i) {
    const std::uint64_t w = base + rng.next() % spread;
    std::memcpy(raw.data() + i * 8, &w, 8);  // host LE on every CI target
  }
  return raw;
}

std::string random_value(std::size_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::string raw(n, '\0');
  for (char& c : raw) c = static_cast<char>(rng.next() & 0xff);
  return raw;
}

/// Byte-at-a-time PackBits encoder: the specification of the RLE byte
/// stream, which the word-at-a-time encoder must reproduce exactly.
std::string reference_rle(std::string_view raw) {
  constexpr std::size_t kMaxRun = 128;
  const auto run_length_at = [&](std::size_t i) {
    std::size_t n = 1;
    while (n < kMaxRun && i + n < raw.size() && raw[i + n] == raw[i]) ++n;
    return n;
  };
  std::string out;
  std::size_t i = 0;
  while (i < raw.size()) {
    const std::size_t run = run_length_at(i);
    if (run >= 3) {
      out.push_back(static_cast<char>(257 - run));
      out.push_back(raw[i]);
      i += run;
      continue;
    }
    const std::size_t start = i;
    while (i < raw.size() && i - start < kMaxRun &&
           !(i + 2 < raw.size() && raw[i] == raw[i + 1] &&
             raw[i] == raw[i + 2])) {
      ++i;
    }
    out.push_back(static_cast<char>(i - start - 1));
    out.append(raw.substr(start, i - start));
  }
  return out;
}

/// RLE is the only codec and every length is eligible, so compress_value
/// must return reference_rle's bytes whenever they are smaller than raw.
CompressionConfig rle_only_config() {
  CompressionConfig config = enabled_config();
  config.min_value_bytes = 0;
  config.bdi_max_bytes = 0;
  return config;
}

/// Encode `raw` from an exact-size heap copy (no std::string slack past
/// the last byte, so a word load that over-reads trips ASan) and check it
/// against the reference encoder.
void expect_matches_reference(const std::string& raw) {
  const std::unique_ptr<char[]> exact(new char[raw.size()]);
  std::memcpy(exact.get(), raw.data(), raw.size());
  const std::string_view view(exact.get(), raw.size());
  const std::string want = reference_rle(raw);
  const CompressResult got = compress_value(view, rle_only_config());
  if (want.size() < raw.size()) {
    ASSERT_EQ(got.codec, Codec::kRle) << "len " << raw.size();
    ASSERT_EQ(got.data, want) << "len " << raw.size();
  } else {
    ASSERT_EQ(got.codec, Codec::kIdentity) << "len " << raw.size();
  }
  // Under the default config BDI may win instead; when RLE wins it must
  // still be the reference bytes.
  const CompressResult dflt = compress_value(view, enabled_config());
  if (dflt.codec == Codec::kRle) {
    ASSERT_EQ(dflt.data, want) << "len " << raw.size();
  }
}

/// Bytes with no three equal in a row anywhere: a pure literal.
std::string literal_bytes(std::size_t n, char first) {
  std::string out(n, '\0');
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<char>(first + static_cast<char>(i % 7));
  }
  return out;
}

/// Random bytes over a `letters`-symbol alphabet: few letters make runs
/// of every short length, and triples at arbitrary offsets.
std::string lettered_value(std::size_t n, unsigned letters,
                           util::Xoshiro256& rng) {
  std::string out(n, '\0');
  for (char& c : out) c = static_cast<char>('a' + rng.next() % letters);
  return out;
}

/// The perfbench value shape: an 8-byte stamp, then blocks of 128 random
/// bytes and 128 repeats of one byte.
std::string half_run_value(std::size_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::string out(n, 'v');
  for (std::size_t i = 0; i < n; ++i) {
    if (i < 8 || i % 256 < 128) out[i] = static_cast<char>(rng.next() & 0xff);
  }
  return out;
}

TEST(CompressRle, MatchesReferenceAtEveryLengthUpTo300) {
  util::Xoshiro256 rng(0x5eed);
  for (std::size_t len = 0; len <= 300; ++len) {
    expect_matches_reference(std::string(len, 'q'));
    expect_matches_reference(literal_bytes(len, 'A'));
    expect_matches_reference(random_value(len, 1000 + len));
    for (unsigned letters = 1; letters <= 4; ++letters) {
      expect_matches_reference(lettered_value(len, letters, rng));
    }
  }
}

TEST(CompressRle, MatchesReferenceForRunsAtEveryWordOffset) {
  const std::vector<std::size_t> runs = {1, 2, 3, 7, 8, 9, 127, 128, 129, 300};
  for (const std::size_t run : runs) {
    for (std::size_t offset = 0; offset < 16; ++offset) {
      for (const std::size_t suffix : {0, 1, 2, 3, 9, 130}) {
        expect_matches_reference(literal_bytes(offset, 'A') +
                                 std::string(run, 'z') +
                                 literal_bytes(suffix, 'a'));
      }
    }
  }
}

TEST(CompressRle, MatchesReferenceForTriplesInTheLastThreeBytes) {
  for (std::size_t lead = 0; lead <= 40; ++lead) {
    const std::string body = literal_bytes(lead, 'A');
    expect_matches_reference(body + "zzz");  // triple starts at size - 3
    expect_matches_reference(body + "zz");   // a pair, never a triple
    expect_matches_reference(body + "z");
    expect_matches_reference(body + "zzzz");
    expect_matches_reference(body + "zzzy");
  }
}

TEST(CompressRle, MatchesReferenceAroundThe128ByteLiteralCap) {
  for (const std::size_t lit : {126, 127, 128, 129, 130, 255, 256, 257, 384}) {
    const std::string literal = literal_bytes(lit, 'A');
    expect_matches_reference(literal);
    for (std::size_t run = 1; run <= 4; ++run) {
      expect_matches_reference(literal + std::string(run, 'z'));
      expect_matches_reference(literal + std::string(run, 'z') + "ab");
    }
  }
  // A literal of exactly 128 bytes encodes as one 129-byte frame.
  const std::string raw = literal_bytes(128, 'A') + std::string(64, 'z');
  const std::string want = reference_rle(raw);
  ASSERT_EQ(static_cast<unsigned char>(want[0]), 127u);
  EXPECT_EQ(want.size(), 129u + 2u);
  expect_matches_reference(raw);
}

TEST(CompressRle, MatchesReferenceOnRandomAndHalfRunPayloads) {
  util::Xoshiro256 rng(0xbeef);
  for (int iter = 0; iter < 200; ++iter) {
    const std::size_t len = rng.next() % 17'000;
    expect_matches_reference(random_value(len, rng.next()));
    expect_matches_reference(half_run_value(len, rng.next()));
    expect_matches_reference(random_value(len / 2, rng.next()) +
                             std::string(len / 2 + 1, 'r'));
  }
}

TEST(Compress, DisabledConfigAlwaysIdentity) {
  CompressionConfig off;  // default
  EXPECT_EQ(compress_value(std::string(4096, 'a'), off).codec,
            Codec::kIdentity);
}

TEST(Compress, EmptyAndTinyValuesStayIdentity) {
  const CompressionConfig config = enabled_config();
  EXPECT_EQ(compress_value("", config).codec, Codec::kIdentity);
  EXPECT_EQ(compress_value("x", config).codec, Codec::kIdentity);
  // One byte under the threshold: still identity, by the min_value_bytes
  // rule, even though 63 'a's would RLE beautifully.
  EXPECT_EQ(
      compress_value(std::string(config.min_value_bytes - 1, 'a'), config)
          .codec,
      Codec::kIdentity);
  // At the threshold the codecs engage.
  EXPECT_NE(
      compress_value(std::string(config.min_value_bytes, 'a'), config).codec,
      Codec::kIdentity);
}

TEST(Compress, RunsCompressViaRle) {
  const CompressionConfig config = enabled_config();
  const std::string raw(100'000, 'v');
  const CompressResult comp = compress_value(raw, config);
  EXPECT_EQ(comp.codec, Codec::kRle);
  // 128 repeats per 2-byte frame: ~n/64.
  EXPECT_LT(comp.data.size(), raw.size() / 50);
  std::string out;
  ASSERT_TRUE(decompress_value(comp.codec, comp.data, raw.size(), out));
  EXPECT_EQ(out, raw);
}

TEST(Compress, StructuredValuesCompressViaBdi) {
  const CompressionConfig config = enabled_config();
  // 64 counters within 2^15 of one base: 2-byte deltas, ~4x.
  const std::string raw = structured_value(64, 0x1122334455667788ull, 30'000);
  const CompressResult comp = compress_value(raw, config);
  EXPECT_EQ(comp.codec, Codec::kBdi);
  EXPECT_LT(comp.data.size(), raw.size() / 2);
  std::string out;
  ASSERT_TRUE(decompress_value(comp.codec, comp.data, raw.size(), out));
  EXPECT_EQ(out, raw);
}

TEST(Compress, BdiRespectsSizeCeiling) {
  CompressionConfig config = enabled_config();
  config.bdi_max_bytes = 256;
  // Structured but past the BDI ceiling. The base's bytes are all distinct
  // and the spread never carries past the low two bytes, so the raw bytes
  // hold no runs for RLE to win on: with BDI skipped, the value bails.
  const std::string raw = structured_value(64, 0x1122334455667788ull, 30'000);
  ASSERT_GT(raw.size(), config.bdi_max_bytes);
  EXPECT_EQ(compress_value(raw, config).codec, Codec::kIdentity);
  // The same value under the default ceiling compresses.
  EXPECT_EQ(compress_value(raw, enabled_config()).codec, Codec::kBdi);
}

TEST(Compress, IncompressibleValueBailsToIdentity) {
  const CompressionConfig config = enabled_config();
  // Uniform random bytes: no runs, no shared base. Must bail, never grow.
  EXPECT_EQ(compress_value(random_value(4096, 0xfeed), config).codec,
            Codec::kIdentity);
}

TEST(Compress, ProtocolCapSizedValueRoundTrips) {
  const CompressionConfig config = enabled_config();
  // The largest value the protocol admits (64 MiB), highly compressible —
  // exercises the length bookkeeping at the extreme without a slow input.
  std::string raw(kMaxValueBytes, 'z');
  // Break up some runs so both literal and repeat paths run at scale.
  for (std::size_t i = 0; i < raw.size(); i += 4093) {
    raw[i] = static_cast<char>('a' + (i % 23));
  }
  const CompressResult comp = compress_value(raw, config);
  ASSERT_EQ(comp.codec, Codec::kRle);
  std::string out;
  ASSERT_TRUE(decompress_value(comp.codec, comp.data, raw.size(), out));
  EXPECT_EQ(out, raw);
}

TEST(Compress, IdentityDecodeChecksLength) {
  std::string out;
  EXPECT_TRUE(decompress_value(Codec::kIdentity, "abcd", 4, out));
  EXPECT_EQ(out, "abcd");
  EXPECT_FALSE(decompress_value(Codec::kIdentity, "abcd", 5, out));
  EXPECT_FALSE(decompress_value(Codec::kIdentity, "abcd", 3, out));
}

TEST(Compress, MalformedEncodingsAreRejected) {
  const CompressionConfig config = enabled_config();
  std::string out;

  // Truncated RLE stream: a repeat control with no byte after it.
  EXPECT_FALSE(decompress_value(Codec::kRle, std::string(1, '\x81'), 2, out));
  // The reserved 128 control byte.
  EXPECT_FALSE(decompress_value(Codec::kRle, std::string(1, '\x80'), 1, out));
  // A literal control promising more bytes than the stream holds.
  EXPECT_FALSE(decompress_value(Codec::kRle, std::string("\x05" "ab"), 6,
                                out));
  // A declared raw_len past what the stream can possibly expand to (64x:
  // one 2-byte frame repeats a byte at most 128 times) is refused before
  // the decoder reserves it.
  EXPECT_TRUE(decompress_value(Codec::kRle, std::string("\x81z", 2), 128,
                               out));
  EXPECT_EQ(out, std::string(128, 'z'));
  EXPECT_FALSE(decompress_value(Codec::kRle, std::string("\x81z", 2), 129,
                                out));
  EXPECT_FALSE(decompress_value(Codec::kRle, std::string("\x81z", 2),
                                0xffffffffu, out));
  // Valid stream, wrong declared raw_len.
  const CompressResult rle = compress_value(std::string(256, 'q'), config);
  ASSERT_EQ(rle.codec, Codec::kRle);
  EXPECT_FALSE(decompress_value(Codec::kRle, rle.data, 255, out));
  EXPECT_FALSE(decompress_value(Codec::kRle, rle.data, 257, out));

  // BDI: empty stream, bad width tag, truncated delta array, trailing
  // garbage, wrong raw_len.
  EXPECT_FALSE(decompress_value(Codec::kBdi, "", 16, out));
  const std::string structured =
      structured_value(32, 0xaabbccdd0000ull, 1000);
  const CompressResult bdi = compress_value(structured, config);
  ASSERT_EQ(bdi.codec, Codec::kBdi);
  std::string bad = bdi.data;
  bad[0] = 3;  // widths are 1/2/4 only
  EXPECT_FALSE(decompress_value(Codec::kBdi, bad, structured.size(), out));
  EXPECT_FALSE(decompress_value(
      Codec::kBdi, std::string_view(bdi.data).substr(0, bdi.data.size() - 1),
      structured.size(), out));
  EXPECT_FALSE(decompress_value(Codec::kBdi, bdi.data + "x",
                                structured.size(), out));
  EXPECT_FALSE(
      decompress_value(Codec::kBdi, bdi.data, structured.size() - 8, out));
}

TEST(Compress, FuzzCorpusRoundTripsAndRejectsMutations) {
  const CompressionConfig config = enabled_config();
  util::Xoshiro256 rng(0xc0ffee);
  int compressed_seen = 0;
  for (int iter = 0; iter < 400; ++iter) {
    // Mix value shapes: runs, structured words, random, and hybrids.
    std::string raw;
    const std::size_t len = 1 + rng.next() % 3000;
    switch (iter % 4) {
      case 0:
        raw.assign(len, static_cast<char>('a' + iter % 26));
        break;
      case 1:
        raw = structured_value(1 + len / 8, rng.next(), 1 + iter * 7u);
        break;
      case 2:
        raw = random_value(len, rng.next());
        break;
      default:
        raw = random_value(len / 2, rng.next()) +
              std::string(len / 2 + 1, 'r');
        break;
    }
    const CompressResult comp = compress_value(raw, config);
    std::string out;
    if (comp.codec == Codec::kIdentity) {
      ASSERT_TRUE(decompress_value(comp.codec, raw, raw.size(), out));
      ASSERT_EQ(out, raw);
      continue;
    }
    ++compressed_seen;
    ASSERT_LT(comp.data.size(), raw.size());
    ASSERT_TRUE(decompress_value(comp.codec, comp.data, raw.size(), out));
    ASSERT_EQ(out, raw);

    // Mutate one byte / truncate / extend: must either fail closed or
    // still produce exactly raw_len bytes — never crash, never over-read.
    std::string mutated = comp.data;
    mutated[rng.next() % mutated.size()] ^= static_cast<char>(
        1 + rng.next() % 255);
    if (decompress_value(comp.codec, mutated, raw.size(), out)) {
      ASSERT_EQ(out.size(), raw.size());
    }
    if (comp.data.size() > 1) {
      ASSERT_FALSE(decompress_value(
          comp.codec,
          std::string_view(comp.data).substr(0, comp.data.size() / 2),
          raw.size(), out))
          << "a truncated encoding must not decode to the full length";
    }
  }
  // The corpus must actually exercise the codecs, not bail throughout.
  EXPECT_GT(compressed_seen, 100);
}

}  // namespace
}  // namespace camp::kvs
