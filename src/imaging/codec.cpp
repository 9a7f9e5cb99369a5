#include "imaging/codec.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "imaging/codec_detail.hpp"
#include "imaging/progressive.hpp"
#include "util/bitstream.hpp"
#include "util/byte_io.hpp"

namespace bees::img {

namespace {

using detail::kZigzag;
using detail::Plane;

constexpr std::uint32_t kMagic = 0x474a5042;  // "BPJG" little-endian
constexpr std::uint64_t kEobRun = 63;         // sentinel: end of block

// Precomputed DCT basis: cos((2x+1) u pi / 16) with normalization.
struct DctTables {
  float c[8][8];  // c[u][x]
  DctTables() {
    for (int u = 0; u < 8; ++u) {
      const float alpha =
          u == 0 ? std::sqrt(1.0f / 8.0f) : std::sqrt(2.0f / 8.0f);
      for (int x = 0; x < 8; ++x) {
        c[u][x] = alpha * std::cos(static_cast<float>((2 * x + 1) * u) *
                                   static_cast<float>(M_PI) / 16.0f);
      }
    }
  }
};
const DctTables kDct;

void encode_plane(const Plane& plane, const std::array<int, 64>& quant,
                  util::BitWriter& bw) {
  const int bw8 = plane.padded_w() / 8;
  const int bh8 = plane.padded_h() / 8;
  int prev_dc = 0;
  float block[64], coeff[64];
  for (int by = 0; by < bh8; ++by) {
    for (int bx = 0; bx < bw8; ++bx) {
      for (int y = 0; y < 8; ++y) {
        for (int x = 0; x < 8; ++x) {
          block[y * 8 + x] = plane.at(bx * 8 + x, by * 8 + y) - 128.0f;
        }
      }
      forward_dct_8x8(block, coeff);
      int q[64];
      for (int i = 0; i < 64; ++i) {
        q[i] = static_cast<int>(
            std::lround(coeff[kZigzag[static_cast<std::size_t>(i)]] /
                        static_cast<float>(
                            quant[static_cast<std::size_t>(i)])));
      }
      // DC: delta from previous block.
      bw.put_se(q[0] - prev_dc);
      prev_dc = q[0];
      // AC: (zero-run, value) pairs, then an EOB sentinel.
      int run = 0;
      for (int i = 1; i < 64; ++i) {
        if (q[i] == 0) {
          ++run;
          continue;
        }
        bw.put_ue(static_cast<std::uint64_t>(run));
        bw.put_se(q[i]);
        run = 0;
      }
      bw.put_ue(kEobRun);
    }
  }
}

void decode_plane(Plane& plane, const std::array<int, 64>& quant,
                  util::BitReader& br) {
  const int bw8 = plane.padded_w() / 8;
  const int bh8 = plane.padded_h() / 8;
  int prev_dc = 0;
  float coeff[64], block[64];
  for (int by = 0; by < bh8; ++by) {
    for (int bx = 0; bx < bw8; ++bx) {
      int q[64] = {};
      prev_dc += static_cast<int>(br.get_se());
      q[0] = prev_dc;
      int i = 1;
      while (i < 64) {
        const std::uint64_t run = br.get_ue();
        if (run == kEobRun) break;
        i += static_cast<int>(run);
        if (i >= 64) throw util::DecodeError("codec: AC run overflow");
        q[i++] = static_cast<int>(br.get_se());
      }
      if (i >= 64) {
        // The block filled exactly; consume its EOB sentinel.
        if (br.get_ue() != kEobRun) {
          throw util::DecodeError("codec: missing EOB");
        }
      }
      for (int k = 0; k < 64; ++k) {
        coeff[kZigzag[static_cast<std::size_t>(k)]] =
            static_cast<float>(q[k]) *
            static_cast<float>(quant[static_cast<std::size_t>(k)]);
      }
      inverse_dct_8x8(coeff, block);
      for (int y = 0; y < 8; ++y) {
        for (int x = 0; x < 8; ++x) {
          plane.at(bx * 8 + x, by * 8 + y) = block[y * 8 + x] + 128.0f;
        }
      }
    }
  }
}

}  // namespace

void forward_dct_8x8(const float* in, float* out) noexcept {
  // Rows then columns; O(8^3) per pass — plenty fast for the simulator and
  // easy to verify against the orthonormal definition.
  float tmp[64];
  for (int y = 0; y < 8; ++y) {
    for (int u = 0; u < 8; ++u) {
      float acc = 0.0f;
      for (int x = 0; x < 8; ++x) acc += in[y * 8 + x] * kDct.c[u][x];
      tmp[y * 8 + u] = acc;
    }
  }
  for (int u = 0; u < 8; ++u) {
    for (int v = 0; v < 8; ++v) {
      float acc = 0.0f;
      for (int y = 0; y < 8; ++y) acc += tmp[y * 8 + u] * kDct.c[v][y];
      out[v * 8 + u] = acc;
    }
  }
}

void inverse_dct_8x8(const float* in, float* out) noexcept {
  float tmp[64];
  for (int v = 0; v < 8; ++v) {
    for (int x = 0; x < 8; ++x) {
      float acc = 0.0f;
      for (int u = 0; u < 8; ++u) acc += in[v * 8 + u] * kDct.c[u][x];
      tmp[v * 8 + x] = acc;
    }
  }
  for (int x = 0; x < 8; ++x) {
    for (int y = 0; y < 8; ++y) {
      float acc = 0.0f;
      for (int v = 0; v < 8; ++v) acc += tmp[v * 8 + x] * kDct.c[v][y];
      out[y * 8 + x] = acc;
    }
  }
}

std::vector<std::uint8_t> encode_jpeg_like(const Image& src, int quality) {
  quality = std::clamp(quality, 1, 100);
  util::ByteWriter header;
  header.put_u32(kMagic);
  header.put_u32(static_cast<std::uint32_t>(src.width()));
  header.put_u32(static_cast<std::uint32_t>(src.height()));
  header.put_u8(static_cast<std::uint8_t>(src.channels()));
  header.put_u8(static_cast<std::uint8_t>(quality));

  const auto lq = detail::scaled_quant(detail::kLumaQuant, quality);
  const auto cq = detail::scaled_quant(detail::kChromaQuant, quality);

  const std::vector<Plane> planes = detail::to_planes(src);
  util::BitWriter bw;
  encode_plane(planes[0], lq, bw);
  for (std::size_t p = 1; p < planes.size(); ++p) {
    encode_plane(planes[p], cq, bw);
  }

  std::vector<std::uint8_t> out = header.take();
  const std::vector<std::uint8_t> payload = bw.finish();
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

Image decode_jpeg_like(const std::vector<std::uint8_t>& bytes) {
  util::ByteReader hr(bytes);
  const std::uint32_t magic = hr.get_u32();
  if (magic == kProgressiveMagic) {
    // Format v2 (progressive Huffman): the strict whole-stream decode —
    // every scan must be present and intact.
    return decode_progressive(bytes);
  }
  if (magic != kMagic) throw util::DecodeError("codec: bad magic");
  const int w = static_cast<int>(hr.get_u32());
  const int h = static_cast<int>(hr.get_u32());
  const int channels = hr.get_u8();
  const int quality = hr.get_u8();
  if (w <= 0 || h <= 0 || (channels != 1 && channels != 3)) {
    throw util::DecodeError("codec: bad header");
  }
  constexpr std::size_t kHeaderBytes = 4 + 4 + 4 + 1 + 1;
  detail::check_coded_size(w, h, channels, bytes.size() - kHeaderBytes);
  const auto lq = detail::scaled_quant(detail::kLumaQuant, quality);
  const auto cq = detail::scaled_quant(detail::kChromaQuant, quality);
  util::BitReader br(bytes, kHeaderBytes);

  std::vector<Plane> planes;
  planes.push_back(detail::make_plane(w, h));
  decode_plane(planes[0], lq, br);
  if (channels == 3) {
    const int cw = (w + 1) / 2;
    const int chh = (h + 1) / 2;
    planes.push_back(detail::make_plane(cw, chh));
    planes.push_back(detail::make_plane(cw, chh));
    decode_plane(planes[1], cq, br);
    decode_plane(planes[2], cq, br);
  }
  return detail::planes_to_image(w, h, channels, planes);
}

int quality_from_proportion(double proportion) noexcept {
  proportion = std::clamp(proportion, 0.0, 0.99);
  return std::clamp(static_cast<int>(std::lround((1.0 - proportion) * 100.0)),
                    1, 100);
}

}  // namespace bees::img
