// Unit tests for the mask compression codec.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "masksearch/common/serialize.h"
#include "masksearch/storage/codec.h"
#include "masksearch/workload/synthetic.h"
#include "test_util.h"

namespace masksearch {
namespace {

using testing_util::BlobMask;
using testing_util::RandomMask;

// ---------------------------------------------------------------------------
// Reference decoder: the straightforward BufferReader implementation (one
// checked read per symbol and varint byte, an intermediate symbol array,
// then a per-pixel conversion). The library decoder must match it bit for
// bit, and in ok / Corruption outcome, on every input below.
// ---------------------------------------------------------------------------

Result<uint64_t> RefGetVarint(BufferReader* reader) {
  uint64_t v = 0;
  int shift = 0;
  for (;;) {
    MS_ASSIGN_OR_RETURN(uint8_t byte, reader->GetU8());
    v |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) break;
    shift += 7;
    if (shift > 63) return Status::Corruption("varint too long");
  }
  return v;
}

template <typename T>
Status RefRleDecode(BufferReader* reader, size_t n, T* out) {
  size_t i = 0;
  while (i < n) {
    T v;
    MS_RETURN_NOT_OK(reader->GetBytes(&v, sizeof(T)));
    MS_ASSIGN_OR_RETURN(uint64_t run, RefGetVarint(reader));
    if (run == 0 || run > n - i) {
      return Status::Corruption("RLE run overflows mask payload");
    }
    std::fill(out + i, out + i + run, v);
    i += run;
  }
  return Status::OK();
}

Result<Mask> RefDecodeMask(const std::string& blob) {
  BufferReader reader(blob.data(), blob.size());
  MS_ASSIGN_OR_RETURN(uint32_t magic, reader.GetU32());
  if (magic != 0x4d534b43) return Status::Corruption("bad codec magic");
  MS_ASSIGN_OR_RETURN(uint8_t version, reader.GetU8());
  if (version != 1) return Status::Corruption("unsupported codec version");
  MS_ASSIGN_OR_RETURN(uint8_t bits, reader.GetU8());
  MS_ASSIGN_OR_RETURN(int32_t w, reader.GetI32());
  MS_ASSIGN_OR_RETURN(int32_t h, reader.GetI32());
  if (w <= 0 || h <= 0) return Status::Corruption("bad mask dimensions");
  // The reference allocates w*h straight from the header; callers only feed
  // it small shapes.
  const size_t n = static_cast<size_t>(w) * static_cast<size_t>(h);
  std::vector<float> values(n);
  if (bits == 8) {
    std::vector<uint8_t> q(n);
    MS_RETURN_NOT_OK(RefRleDecode(&reader, n, q.data()));
    for (size_t i = 0; i < n; ++i) {
      values[i] = (static_cast<float>(q[i]) + 0.5f) / 256.0f;
    }
  } else if (bits == 16) {
    std::vector<uint16_t> q(n);
    MS_RETURN_NOT_OK(RefRleDecode(&reader, n, q.data()));
    for (size_t i = 0; i < n; ++i) {
      values[i] = (static_cast<float>(q[i]) + 0.5f) / 65536.0f;
    }
  } else {
    return Status::Corruption("unsupported quantization width");
  }
  return Mask::FromData(w, h, std::move(values));
}

/// Header dimensions of a blob, or false if it is too short to have them.
bool HeaderDims(const std::string& blob, int32_t* w, int32_t* h) {
  if (blob.size() < 14) return false;
  std::memcpy(w, blob.data() + 6, sizeof(*w));
  std::memcpy(h, blob.data() + 10, sizeof(*h));
  return true;
}

/// Decodes `blob` with the library (both entry points) and the reference
/// and requires identical outcomes: both Corruption, or both OK with
/// bit-identical pixels.
void ExpectMatchesReference(const std::string& blob, const std::string& what) {
  SCOPED_TRACE(what);
  // Only shapes the reference can afford to allocate.
  int32_t w = 0;
  int32_t h = 0;
  if (HeaderDims(blob, &w, &h) && w > 0 && h > 0 &&
      static_cast<int64_t>(w) * h > (int64_t{1} << 20)) {
    return;
  }
  const Result<Mask> ref = RefDecodeMask(blob);
  const Result<Mask> got = DecodeMask(blob);
  ASSERT_EQ(ref.ok(), got.ok()) << "reference: " << ref.status().ToString()
                                << " library: " << got.status().ToString();
  if (!ref.ok()) {
    EXPECT_TRUE(ref.status().IsCorruption()) << ref.status().ToString();
    EXPECT_TRUE(got.status().IsCorruption()) << got.status().ToString();
    return;
  }
  ASSERT_EQ(ref->width(), got->width());
  ASSERT_EQ(ref->height(), got->height());
  ASSERT_EQ(std::memcmp(ref->data().data(), got->data().data(),
                        ref->ByteSize()),
            0);
  // The frame entry point, given the header's shape, writes the same bits.
  std::vector<float> frame(ref->data().size(), -1.0f);
  MS_ASSERT_OK(DecodeMaskInto(blob.data(), blob.size(), ref->width(),
                              ref->height(), frame.data()));
  EXPECT_EQ(std::memcmp(ref->data().data(), frame.data(), ref->ByteSize()),
            0);
}

Mask NoisySaliencyMask(uint64_t seed, int32_t side) {
  Rng rng(seed);
  SaliencySpec spec;
  spec.width = side;
  spec.height = side;
  return GenerateSaliencyMask(&rng, spec, GenerateObjectBox(&rng, side, side),
                              false);
}

Mask SmoothMask(uint64_t seed, int32_t side) {
  Rng rng(seed);
  SaliencySpec spec;
  spec.width = side;
  spec.height = side;
  spec.noise = 0;
  return GenerateSaliencyMask(&rng, spec, GenerateObjectBox(&rng, side, side),
                              false);
}

/// A mask of `len`-pixel constant stripes: RLE runs of exactly `len`.
Mask StripeMask(int32_t w, int32_t h, int64_t len) {
  Mask m(w, h);
  for (int64_t i = 0; i < m.NumPixels(); ++i) {
    m.mutable_data()[static_cast<size_t>(i)] = (i / len) % 2 ? 0.75f : 0.25f;
  }
  return m;
}

std::string Encode16(const Mask& m) {
  CodecOptions opts;
  opts.bits = QuantBits::k16;
  return EncodeMask(m, opts);
}

TEST(CodecTest, RoundTripWithinQuantizationError8Bit) {
  Rng rng(3);
  Mask m = RandomMask(&rng, 32, 24);
  const std::string blob = EncodeMask(m);
  auto decoded = DecodeMask(blob);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->width(), 32);
  EXPECT_EQ(decoded->height(), 24);
  for (size_t i = 0; i < m.data().size(); ++i) {
    EXPECT_NEAR(decoded->data()[i], m.data()[i], 1.0 / 256.0 + 1e-6);
  }
}

TEST(CodecTest, RoundTripWithinQuantizationError16Bit) {
  Rng rng(4);
  Mask m = RandomMask(&rng, 17, 9);
  CodecOptions opts;
  opts.bits = QuantBits::k16;
  auto decoded = DecodeMask(EncodeMask(m, opts));
  ASSERT_TRUE(decoded.ok());
  for (size_t i = 0; i < m.data().size(); ++i) {
    EXPECT_NEAR(decoded->data()[i], m.data()[i], 1.0 / 65536.0 + 1e-7);
  }
}

TEST(CodecTest, Idempotent) {
  // Decoded values are bin midpoints, so re-encoding is lossless.
  Rng rng(5);
  Mask m = RandomMask(&rng, 16, 16);
  auto once = DecodeMask(EncodeMask(m));
  ASSERT_TRUE(once.ok());
  auto twice = DecodeMask(EncodeMask(*once));
  ASSERT_TRUE(twice.ok());
  EXPECT_EQ(once->data(), twice->data());
}

TEST(CodecTest, CompressesSmoothMasks) {
  // Saliency-like masks have large flat regions; RLE on quantized bytes
  // should beat raw float32 comfortably.
  Rng rng(6);
  Mask m = BlobMask(&rng, 112, 112);
  const std::string blob = EncodeMask(m);
  EXPECT_LT(blob.size(), m.ByteSize() / 2)
      << "compressed " << blob.size() << " vs raw " << m.ByteSize();
}

TEST(CodecTest, ConstantMaskCompressesExtremely) {
  Mask m(64, 64);  // all zeros
  const std::string blob = EncodeMask(m);
  EXPECT_LT(blob.size(), 64u);
}

TEST(CodecTest, DecodedValuesStayInDomain) {
  Rng rng(7);
  Mask m = RandomMask(&rng, 20, 20);
  auto decoded = DecodeMask(EncodeMask(m));
  ASSERT_TRUE(decoded.ok());
  for (float v : decoded->data()) {
    EXPECT_GE(v, 0.0f);
    EXPECT_LT(v, 1.0f);
  }
}

TEST(CodecTest, RejectsGarbage) {
  EXPECT_TRUE(DecodeMask(std::string("not a mask")).status().IsCorruption());
  EXPECT_TRUE(DecodeMask(std::string()).status().IsCorruption());
}

TEST(CodecTest, RejectsTruncatedBlob) {
  Rng rng(8);
  Mask m = RandomMask(&rng, 16, 16);
  std::string blob = EncodeMask(m);
  blob.resize(blob.size() / 2);
  EXPECT_TRUE(DecodeMask(blob).status().IsCorruption());
}

TEST(CodecTest, RejectsCorruptHeader) {
  Rng rng(9);
  Mask m = RandomMask(&rng, 8, 8);
  std::string blob = EncodeMask(m);
  blob[0] ^= 0x5a;  // break magic
  EXPECT_TRUE(DecodeMask(blob).status().IsCorruption());
}

TEST(CodecDifferentialTest, SmoothMasks) {
  for (uint64_t seed = 0; seed < 4; ++seed) {
    const Mask m = SmoothMask(seed, 96);
    ExpectMatchesReference(EncodeMask(m), "8-bit seed " + std::to_string(seed));
    ExpectMatchesReference(Encode16(m), "16-bit seed " + std::to_string(seed));
  }
}

TEST(CodecDifferentialTest, NoisySaliencyMasks) {
  for (uint64_t seed = 0; seed < 4; ++seed) {
    const Mask m = NoisySaliencyMask(seed, 112);
    ExpectMatchesReference(EncodeMask(m), "8-bit seed " + std::to_string(seed));
    ExpectMatchesReference(Encode16(m), "16-bit seed " + std::to_string(seed));
  }
}

TEST(CodecDifferentialTest, ConstantMasks) {
  Mask zeros(64, 64);
  Mask top(33, 7);
  for (float& v : top.mutable_data()) v = std::nextafter(1.0f, 0.0f);
  for (const Mask* m : {&zeros, &top}) {
    ExpectMatchesReference(EncodeMask(*m), "8-bit");
    ExpectMatchesReference(Encode16(*m), "16-bit");
  }
}

TEST(CodecDifferentialTest, SixteenBitRandomMasks) {
  Rng rng(12);
  for (int i = 0; i < 4; ++i) {
    ExpectMatchesReference(Encode16(RandomMask(&rng, 31, 17)), "random");
  }
}

TEST(CodecDifferentialTest, MultiByteVarintRuns) {
  // Runs of 128.. need a 2-byte varint and 16384.. a 3-byte one.
  for (int64_t len : {127, 128, 200, 16383, 16384, 20000}) {
    const Mask m = StripeMask(256, 160, len);
    ExpectMatchesReference(EncodeMask(m), "8-bit run " + std::to_string(len));
    ExpectMatchesReference(Encode16(m), "16-bit run " + std::to_string(len));
  }
}

TEST(CodecDifferentialTest, EveryTruncationAndByteFlip) {
  // A small blob with 1-px runs, a multi-byte varint and both symbol widths.
  Mask m = StripeMask(20, 10, 150);
  Rng rng(13);
  for (int i = 0; i < 12; ++i) {
    m.mutable_data()[static_cast<size_t>(i)] =
        static_cast<float>(rng.Uniform(0.0, 1.0));
  }
  for (const std::string& blob : {EncodeMask(m), Encode16(m)}) {
    for (size_t len = 0; len <= blob.size(); ++len) {
      ExpectMatchesReference(blob.substr(0, len),
                             "truncated to " + std::to_string(len));
    }
    for (size_t pos = 0; pos < blob.size(); ++pos) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string flipped = blob;
        flipped[pos] = static_cast<char>(flipped[pos] ^ (1 << bit));
        ExpectMatchesReference(flipped, "byte " + std::to_string(pos) +
                                            " bit " + std::to_string(bit));
      }
    }
  }
}

TEST(CodecDifferentialTest, OverlongAndZeroRuns) {
  std::string header = EncodeMask(Mask(4, 1)).substr(0, 14);
  // Ten continuation bytes: longer than 63 bits.
  std::string overlong = header + std::string(1, '\x01') +
                         std::string(10, '\x80') + std::string(1, '\x01');
  ExpectMatchesReference(overlong, "overlong varint");
  EXPECT_TRUE(DecodeMask(overlong).status().IsCorruption());
  // A ten-byte varint whose high bits fall off the top decodes to 4.
  std::string wrapped = header + std::string(1, '\x01') + "\x84" +
                        std::string(8, '\x80') + "\x02";
  ExpectMatchesReference(wrapped, "wrapped varint");
  // A zero run is Corruption even when later runs would complete the mask.
  const std::string zero_run = header + std::string("\x01\x00\x01\x04", 4);
  ExpectMatchesReference(zero_run, "zero run");
  EXPECT_TRUE(DecodeMask(zero_run).status().IsCorruption());
  ExpectMatchesReference(header + "\x01\x05", "run past the payload");
  ExpectMatchesReference(header + "\x01\x04" + "trailing", "trailing bytes");
}

TEST(CodecTest, HugeHeaderDimensionsAreCorruptionNotAbort) {
  // 14-byte header claiming INT32_MAX x INT32_MAX pixels and no payload.
  BufferWriter w;
  w.PutU32(0x4d534b43);
  w.PutU8(1);
  w.PutU8(8);
  w.PutI32(std::numeric_limits<int32_t>::max());
  w.PutI32(std::numeric_limits<int32_t>::max());
  const std::string blob = w.Release();
  ASSERT_EQ(blob.size(), 14u);
  Result<Mask> r = DecodeMask(blob);
  EXPECT_TRUE(r.status().IsCorruption()) << r.status().ToString();
  EXPECT_NE(r.status().message().find("decode cap"), std::string::npos);
}

TEST(CodecTest, PixelCapRejectsBeforeAllocating) {
  // One row over the 8192 x 8192 cap is rejected from the header alone; the
  // payload is never read.
  ASSERT_EQ(kMaxDecodePixels, int64_t{8192} * 8192);
  BufferWriter w;
  w.PutU32(0x4d534b43);
  w.PutU8(1);
  w.PutU8(8);
  w.PutI32(8192);
  w.PutI32(8193);
  Result<Mask> r = DecodeMask(w.Release());
  EXPECT_TRUE(r.status().IsCorruption()) << r.status().ToString();
  EXPECT_NE(r.status().message().find("decode cap"), std::string::npos);
}

TEST(CodecTest, DecodeIntoRejectsShapeMismatch) {
  Rng rng(14);
  const Mask m = RandomMask(&rng, 12, 10);
  const std::string blob = EncodeMask(m);
  std::vector<float> frame(120);
  MS_ASSERT_OK(DecodeMaskInto(blob.data(), blob.size(), 12, 10, frame.data()));
  EXPECT_EQ(frame, DecodeMask(blob)->data());
  // Same pixel count, transposed: still a mismatch.
  Status st = DecodeMaskInto(blob.data(), blob.size(), 10, 12, frame.data());
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_NE(st.message().find("12x10"), std::string::npos) << st.ToString();
  EXPECT_TRUE(DecodeMaskInto(blob.data(), blob.size(), 12, 9, frame.data())
                  .IsCorruption());
  EXPECT_TRUE(DecodeMaskInto(blob.data(), blob.size(), 0, 0, frame.data())
                  .IsCorruption());
}

}  // namespace
}  // namespace masksearch
