#include "masksearch/storage/codec.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "masksearch/common/serialize.h"

namespace masksearch {

namespace {

constexpr uint32_t kCodecMagic = 0x4d534b43;  // "MSKC"
constexpr uint8_t kCodecVersion = 1;
// u32 magic, u8 version, u8 bits, i32 width, i32 height.
constexpr size_t kHeaderBytes = 14;

// Varint (LEB128) helper for run lengths.
void PutVarint(std::string* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

// Run-length encodes a sequence of fixed-width symbols.
template <typename T>
void RleEncode(const T* data, size_t n, std::string* out) {
  size_t i = 0;
  while (i < n) {
    T v = data[i];
    size_t run = 1;
    while (i + run < n && data[i + run] == v) ++run;
    out->append(reinterpret_cast<const char*>(&v), sizeof(T));
    PutVarint(out, run);
    i += run;
  }
}

// Dequantized value (bin midpoint) of every 8-bit symbol, built with the
// per-pixel expression (q + 0.5f) / 256.0f so lookups are bit-identical to
// converting each pixel.
struct Dequant8 {
  float value[256];
  constexpr Dequant8() : value() {
    for (int q = 0; q < 256; ++q) {
      value[q] = (static_cast<float>(q) + 0.5f) / 256.0f;
    }
  }
};
constexpr Dequant8 kDequant8;

struct Sym8 {
  using Type = uint8_t;
  static float ToFloat(uint8_t q) { return kDequant8.value[q]; }
};
struct Sym16 {
  using Type = uint16_t;
  static float ToFloat(uint16_t q) {
    return (static_cast<float>(q) + 0.5f) / 65536.0f;
  }
};

// LEB128 continuation bytes after a first byte with the high bit set. Keeps
// the reference semantics exactly: at most ten bytes (shift 0..63), bits
// shifted past 64 are dropped.
inline Status GetVarintTail(const uint8_t** pp, const uint8_t* end,
                            uint64_t* v) {
  const uint8_t* p = *pp;
  int shift = 7;
  for (;;) {
    if (p == end) return Status::Corruption("truncated RLE run length");
    const uint8_t byte = *p++;
    *v |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) break;
    shift += 7;
    if (shift > 63) return Status::Corruption("varint too long");
  }
  *pp = p;
  return Status::OK();
}

// Single pass over the RLE payload [p, end): each (symbol, varint run) pair
// is dequantized once and written straight into out[0, n). A one-pixel run
// with a one-byte varint — the common case on noisy saliency masks — costs
// one bounds check, two loads and one store.
template <typename Sym>
Status RleDecode(const uint8_t* p, const uint8_t* end, size_t n, float* out) {
  using T = typename Sym::Type;
  size_t i = 0;
  while (i < n) {
    const size_t left = static_cast<size_t>(end - p);
    if (left <= sizeof(T)) {
      return Status::Corruption(left < sizeof(T) ? "truncated RLE symbol"
                                                 : "truncated RLE run length");
    }
    T q;
    std::memcpy(&q, p, sizeof(T));
    p += sizeof(T);
    uint64_t run = *p++;
    if (run & 0x80) {
      run &= 0x7f;
      MS_RETURN_NOT_OK(GetVarintTail(&p, end, &run));
    }
    if (run == 0 || run > n - i) {
      return Status::Corruption("RLE run overflows mask payload");
    }
    const float v = Sym::ToFloat(q);
    if (run == 1) {
      out[i] = v;
    } else {
      std::fill(out + i, out + i + run, v);
    }
    i += run;
  }
  return Status::OK();
}

struct Header {
  uint8_t bits = 0;
  int32_t width = 0;
  int32_t height = 0;
};

Status ParseHeader(const void* data, size_t size, Header* h) {
  BufferReader reader(data, size);
  MS_ASSIGN_OR_RETURN(uint32_t magic, reader.GetU32());
  if (magic != kCodecMagic) return Status::Corruption("bad codec magic");
  MS_ASSIGN_OR_RETURN(uint8_t version, reader.GetU8());
  if (version != kCodecVersion) {
    return Status::Corruption("unsupported codec version " +
                              std::to_string(version));
  }
  MS_ASSIGN_OR_RETURN(h->bits, reader.GetU8());
  MS_ASSIGN_OR_RETURN(h->width, reader.GetI32());
  MS_ASSIGN_OR_RETURN(h->height, reader.GetI32());
  if (h->width <= 0 || h->height <= 0) {
    return Status::Corruption("bad mask dimensions");
  }
  if (h->bits != 8 && h->bits != 16) {
    return Status::Corruption("unsupported quantization width");
  }
  return Status::OK();
}

// Decodes the payload after a parsed header into out[0, width*height).
Status DecodePayload(const Header& h, const void* data, size_t size,
                     float* out) {
  const uint8_t* p = static_cast<const uint8_t*>(data) + kHeaderBytes;
  const uint8_t* end = static_cast<const uint8_t*>(data) + size;
  const size_t n = static_cast<size_t>(h.width) * static_cast<size_t>(h.height);
  return h.bits == 8 ? RleDecode<Sym8>(p, end, n, out)
                     : RleDecode<Sym16>(p, end, n, out);
}

}  // namespace

std::string EncodeMask(const Mask& mask, const CodecOptions& opts) {
  BufferWriter header;
  header.PutU32(kCodecMagic);
  header.PutU8(kCodecVersion);
  header.PutU8(static_cast<uint8_t>(opts.bits));
  header.PutI32(mask.width());
  header.PutI32(mask.height());

  std::string out = header.Release();
  const size_t n = static_cast<size_t>(mask.NumPixels());
  if (opts.bits == QuantBits::k8) {
    std::vector<uint8_t> q(n);
    for (size_t i = 0; i < n; ++i) {
      q[i] = static_cast<uint8_t>(
          std::min(255.0f, mask.data()[i] * 256.0f));
    }
    RleEncode(q.data(), n, &out);
  } else {
    std::vector<uint16_t> q(n);
    for (size_t i = 0; i < n; ++i) {
      q[i] = static_cast<uint16_t>(
          std::min(65535.0f, mask.data()[i] * 65536.0f));
    }
    RleEncode(q.data(), n, &out);
  }
  return out;
}

Status DecodeMaskInto(const void* data, size_t size, int32_t width,
                      int32_t height, float* out) {
  Header h;
  MS_RETURN_NOT_OK(ParseHeader(data, size, &h));
  if (h.width != width || h.height != height) {
    return Status::Corruption(
        "codec header dimensions " + std::to_string(h.width) + "x" +
        std::to_string(h.height) + " do not match expected " +
        std::to_string(width) + "x" + std::to_string(height));
  }
  return DecodePayload(h, data, size, out);
}

Result<Mask> DecodeMask(const void* data, size_t size) {
  Header h;
  MS_RETURN_NOT_OK(ParseHeader(data, size, &h));
  const int64_t n = static_cast<int64_t>(h.width) * h.height;
  if (n > kMaxDecodePixels) {
    return Status::Corruption(
        "codec header dimensions " + std::to_string(h.width) + "x" +
        std::to_string(h.height) + " exceed the " +
        std::to_string(kMaxDecodePixels) + "-pixel decode cap");
  }
  std::vector<float> values(static_cast<size_t>(n));
  MS_RETURN_NOT_OK(DecodePayload(h, data, size, values.data()));
  return Mask::FromData(h.width, h.height, std::move(values));
}

Result<Mask> DecodeMask(const std::string& blob) {
  return DecodeMask(blob.data(), blob.size());
}

}  // namespace masksearch
