// Mask compression codec: uniform quantization + run-length encoding.
//
// The paper (§1, §2.2) observes that storing compressed masks "moves the
// bottleneck to decompression" and quotes index sizes relative to the
// *compressed* dataset size (§4.1). This codec provides that compressed
// representation: pixel values are quantized to 8- or 16-bit levels and the
// resulting byte stream is run-length encoded (saliency maps contain large
// near-constant regions, so RLE is effective on real mask data).

#ifndef MASKSEARCH_STORAGE_CODEC_H_
#define MASKSEARCH_STORAGE_CODEC_H_

#include <cstdint>
#include <string>

#include "masksearch/common/result.h"
#include "masksearch/storage/mask.h"

namespace masksearch {

/// \brief Quantization width for the codec.
enum class QuantBits : uint8_t {
  k8 = 8,
  k16 = 16,
};

struct CodecOptions {
  QuantBits bits = QuantBits::k8;
};

/// \brief Encodes a mask into a self-describing compressed blob.
///
/// The encoding is lossy only in pixel value precision (1/256 or 1/65536 of
/// the [0,1) domain); shape is preserved exactly. Decoded values are bin
/// midpoints, so quantize→encode→decode→quantize is idempotent.
std::string EncodeMask(const Mask& mask, const CodecOptions& opts = {});

/// \brief Largest mask, in pixels, that DecodeMask allocates for
/// (8192 x 8192, 256 MiB of float32). A blob whose header claims more is
/// rejected as Corruption before any allocation.
constexpr int64_t kMaxDecodePixels = int64_t{1} << 26;

/// \brief Decodes a blob produced by EncodeMask into the caller's frame
/// `out[0, width*height)`, row-major. The blob header's dimensions must equal
/// `width` x `height` (the manifest's MaskMeta); a mismatch, like any damaged
/// or truncated blob, is Corruption. `out` may be partly written on error.
Status DecodeMaskInto(const void* data, size_t size, int32_t width,
                      int32_t height, float* out);

/// \brief Decodes a blob produced by EncodeMask, taking the shape from its
/// header (capped at kMaxDecodePixels).
Result<Mask> DecodeMask(const std::string& blob);
Result<Mask> DecodeMask(const void* data, size_t size);

}  // namespace masksearch

#endif  // MASKSEARCH_STORAGE_CODEC_H_
