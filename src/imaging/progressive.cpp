#include "imaging/progressive.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>
#include <queue>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "imaging/codec.hpp"
#include "imaging/codec_detail.hpp"
#include "util/bitstream.hpp"
#include "util/byte_io.hpp"

namespace bees::img {

namespace {

using detail::kZigzag;
using detail::Plane;

// Per-segment resync marker: a decoder landing on a scan boundary can
// verify framing before trusting the directory entry.
constexpr std::uint16_t kScanMarker = 0xBEE5;

// Fixed header: magic, w, h, channels, quality, scan_count, reserved.
constexpr std::size_t kV2HeaderBytes = 4 + 4 + 4 + 1 + 1 + 1 + 1;

enum ScanKind : std::uint8_t {
  kFull = 0,      // DC + AC 1..63 in one scan (sequential Huffman)
  kDcFirst = 1,   // DC at precision >> al, DPCM across blocks
  kAcBand = 2,    // AC spectral band [ss, se]
  kDcRefine = 3,  // correction bits for the al=1 DC point transform
};

struct ScanSpec {
  ScanKind kind;
  int ss = 0, se = 0, al = 0;
};

// The scan scripts.  Every script covers the full zigzag band exactly
// once (plus the DC refinement when the first scan is coarse), so the
// final-scan reconstruction is the full-quality decode by construction.
std::vector<ScanSpec> scan_script(int scans) {
  switch (std::clamp(scans, 1, kMaxScans)) {
    case 1:
      return {{kFull, 0, 63, 0}};
    case 2:
      return {{kDcFirst, 0, 0, 0}, {kAcBand, 1, 63, 0}};
    case 3:
      return {{kDcFirst, 0, 0, 0}, {kAcBand, 1, 5, 0}, {kAcBand, 6, 63, 0}};
    case 4:
      return {{kDcFirst, 0, 0, 1},
              {kAcBand, 1, 5, 0},
              {kDcRefine, 0, 0, 1},
              {kAcBand, 6, 63, 0}};
    case 5:
      return {{kDcFirst, 0, 0, 1},
              {kAcBand, 1, 5, 0},
              {kDcRefine, 0, 0, 1},
              {kAcBand, 6, 20, 0},
              {kAcBand, 21, 63, 0}};
    default:
      return {{kDcFirst, 0, 0, 1},
              {kAcBand, 1, 2, 0},
              {kDcRefine, 0, 0, 1},
              {kAcBand, 3, 9, 0},
              {kAcBand, 10, 20, 0},
              {kAcBand, 21, 63, 0}};
  }
}

// ---- coefficient analysis -------------------------------------------------

struct PlaneCoeffs {
  int bw8 = 0, bh8 = 0;
  std::array<int, 64> quant{};
  // Zigzag order throughout: orig holds the pre-quantization DCT
  // coefficients, q the quantized integers the entropy stage codes.
  std::vector<std::array<float, 64>> orig;
  std::vector<std::array<int, 64>> q;
};

PlaneCoeffs analyze_plane(const Plane& plane,
                          const std::array<int, 64>& quant) {
  PlaneCoeffs pc;
  pc.quant = quant;
  pc.bw8 = plane.padded_w() / 8;
  pc.bh8 = plane.padded_h() / 8;
  const std::size_t blocks =
      static_cast<std::size_t>(pc.bw8) * static_cast<std::size_t>(pc.bh8);
  pc.orig.reserve(blocks);
  pc.q.reserve(blocks);
  float block[64], coeff[64];
  for (int by = 0; by < pc.bh8; ++by) {
    for (int bx = 0; bx < pc.bw8; ++bx) {
      for (int y = 0; y < 8; ++y) {
        for (int x = 0; x < 8; ++x) {
          block[y * 8 + x] = plane.at(bx * 8 + x, by * 8 + y) - 128.0f;
        }
      }
      forward_dct_8x8(block, coeff);
      std::array<float, 64> o;
      std::array<int, 64> qv;
      for (int i = 0; i < 64; ++i) {
        o[static_cast<std::size_t>(i)] =
            coeff[kZigzag[static_cast<std::size_t>(i)]];
        qv[static_cast<std::size_t>(i)] = static_cast<int>(std::lround(
            o[static_cast<std::size_t>(i)] /
            static_cast<float>(pc.quant[static_cast<std::size_t>(i)])));
      }
      pc.orig.push_back(o);
      pc.q.push_back(qv);
    }
  }
  return pc;
}

// Truncation toward zero: unlike JPEG's arithmetic shift, a coarse DC of
// +-1 reconstructs to 0 rather than overshooting to -2, which keeps the
// coefficient-domain error non-increasing at every scan (the monotone-PSNR
// guarantee leans on this).
int point_transform(int v, int al) noexcept {
  return v < 0 ? -((-v) >> al) : v >> al;
}

// ---- JPEG-style magnitude categories --------------------------------------

int size_cat(int v) noexcept {
  unsigned a = static_cast<unsigned>(std::abs(v));
  int t = 0;
  while (a != 0) {
    a >>= 1;
    ++t;
  }
  return t;
}

std::uint64_t mag_bits(int v, int t) noexcept {
  const int raw = v >= 0 ? v : v + (1 << t) - 1;
  return static_cast<std::uint64_t>(raw) & ((1ull << t) - 1);
}

int mag_value(std::uint64_t bits, int t) noexcept {
  if (t == 0) return 0;
  const int r = static_cast<int>(bits);
  return r < (1 << (t - 1)) ? r - (1 << t) + 1 : r;
}

// ---- canonical Huffman ----------------------------------------------------

struct HuffTable {
  std::array<std::uint8_t, 16> counts{};  // codes of length 1..16
  std::vector<std::uint8_t> symbols;      // canonical order
  std::array<std::uint16_t, 256> code{};
  std::array<std::uint8_t, 256> len{};    // 0 = symbol absent
};

/// Builds a length-limited (<= 16 bit) canonical Huffman table.  Fully
/// deterministic: ties break on node creation order, and symbols of equal
/// frequency keep ascending symbol order.
HuffTable build_huffman(const std::array<std::uint32_t, 256>& freq) {
  HuffTable t;
  std::vector<int> syms;
  for (int s = 0; s < 256; ++s) {
    if (freq[static_cast<std::size_t>(s)] != 0) syms.push_back(s);
  }
  if (syms.empty()) {
    // Degenerate: a scan with no symbols never happens (every block emits
    // at least an EOB), but keep the table well formed regardless.
    syms.push_back(0);
  }

  std::vector<int> depth(syms.size(), 1);
  if (syms.size() > 1) {
    // Huffman merge over (weight, creation order).
    struct Node {
      std::uint64_t weight;
      int parent = -1;
    };
    std::vector<Node> nodes;
    nodes.reserve(syms.size() * 2);
    using Entry = std::pair<std::uint64_t, int>;  // (weight, node id)
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
    for (std::size_t i = 0; i < syms.size(); ++i) {
      nodes.push_back({freq[static_cast<std::size_t>(syms[i])]});
      heap.push({nodes.back().weight, static_cast<int>(i)});
    }
    while (heap.size() > 1) {
      const auto [wa, a] = heap.top();
      heap.pop();
      const auto [wb, b] = heap.top();
      heap.pop();
      const int id = static_cast<int>(nodes.size());
      nodes.push_back({wa + wb});
      nodes[static_cast<std::size_t>(a)].parent = id;
      nodes[static_cast<std::size_t>(b)].parent = id;
      heap.push({wa + wb, id});
    }
    for (std::size_t i = 0; i < syms.size(); ++i) {
      int d = 0;
      for (int n = static_cast<int>(i);
           nodes[static_cast<std::size_t>(n)].parent >= 0;
           n = nodes[static_cast<std::size_t>(n)].parent) {
        ++d;
      }
      depth[i] = d;
    }
  }

  // Count codes per length, then fold anything deeper than 16 back up.
  // Each move keeps the Kraft sum exactly 1, so the adjusted counts still
  // describe a complete prefix code.
  int max_depth = 0;
  for (const int d : depth) max_depth = std::max(max_depth, d);
  std::vector<int> bl(static_cast<std::size_t>(std::max(max_depth, 16)) + 1,
                      0);
  for (const int d : depth) ++bl[static_cast<std::size_t>(d)];
  for (int l = max_depth; l > 16; --l) {
    while (bl[static_cast<std::size_t>(l)] > 0) {
      int j = l - 2;
      while (bl[static_cast<std::size_t>(j)] == 0) --j;
      bl[static_cast<std::size_t>(l)] -= 2;
      bl[static_cast<std::size_t>(l - 1)] += 1;
      bl[static_cast<std::size_t>(j)] -= 1;
      bl[static_cast<std::size_t>(j + 1)] += 2;
    }
  }

  // Assign the adjusted lengths shortest-first to symbols in descending
  // frequency (ascending symbol value on ties), then hand out canonical
  // codes in that same order.
  std::vector<int> by_freq = syms;
  std::stable_sort(by_freq.begin(), by_freq.end(), [&](int a, int b) {
    return freq[static_cast<std::size_t>(a)] >
           freq[static_cast<std::size_t>(b)];
  });
  std::size_t next = 0;
  for (int l = 1; l <= 16; ++l) {
    t.counts[static_cast<std::size_t>(l - 1)] =
        static_cast<std::uint8_t>(bl[static_cast<std::size_t>(l)]);
    for (int c = 0; c < bl[static_cast<std::size_t>(l)]; ++c) {
      const int sym = by_freq[next++];
      t.len[static_cast<std::size_t>(sym)] = static_cast<std::uint8_t>(l);
      t.symbols.push_back(static_cast<std::uint8_t>(sym));
    }
  }
  std::uint32_t code = 0;
  std::size_t at = 0;
  for (int l = 1; l <= 16; ++l) {
    for (int c = 0; c < t.counts[static_cast<std::size_t>(l - 1)]; ++c) {
      t.code[t.symbols[at++]] = static_cast<std::uint16_t>(code++);
    }
    code <<= 1;
  }
  return t;
}

void serialize_table(const HuffTable& t, util::ByteWriter& w) {
  w.put_u8(static_cast<std::uint8_t>(t.symbols.size()));
  for (const std::uint8_t c : t.counts) w.put_u8(c);
  w.put_bytes(t.symbols);
}

/// Decode-side table: JPEG's MINCODE/MAXCODE/VALPTR walk.
struct HuffDecoder {
  std::array<std::int32_t, 17> mincode{};
  std::array<std::int32_t, 17> maxcode{};  // -1 when no codes at length l
  std::array<int, 17> valptr{};
  std::vector<std::uint8_t> symbols;

  static HuffDecoder parse(util::ByteReader& r) {
    HuffDecoder d;
    const int n = r.get_u8();
    if (n < 1) throw util::DecodeError("progressive: empty Huffman table");
    std::array<int, 17> counts{};
    int total = 0;
    for (int l = 1; l <= 16; ++l) {
      counts[static_cast<std::size_t>(l)] = r.get_u8();
      total += counts[static_cast<std::size_t>(l)];
    }
    if (total != n) {
      throw util::DecodeError("progressive: Huffman count mismatch");
    }
    d.symbols = r.get_bytes(static_cast<std::size_t>(n));
    std::uint32_t code = 0;
    int at = 0;
    for (int l = 1; l <= 16; ++l) {
      d.valptr[static_cast<std::size_t>(l)] = at;
      if (counts[static_cast<std::size_t>(l)] == 0) {
        d.mincode[static_cast<std::size_t>(l)] = 0;
        d.maxcode[static_cast<std::size_t>(l)] = -1;
      } else {
        d.mincode[static_cast<std::size_t>(l)] =
            static_cast<std::int32_t>(code);
        code += static_cast<std::uint32_t>(counts[static_cast<std::size_t>(l)]);
        at += counts[static_cast<std::size_t>(l)];
        d.maxcode[static_cast<std::size_t>(l)] =
            static_cast<std::int32_t>(code) - 1;
        if (code > (1u << l)) {
          throw util::DecodeError("progressive: oversubscribed Huffman code");
        }
      }
      code <<= 1;
    }
    return d;
  }

  std::uint8_t decode(util::BitReader& br) const {
    std::int32_t code = br.get_bit() ? 1 : 0;
    for (int l = 1; l <= 16; ++l) {
      if (maxcode[static_cast<std::size_t>(l)] >= 0 &&
          code >= mincode[static_cast<std::size_t>(l)] &&
          code <= maxcode[static_cast<std::size_t>(l)]) {
        return symbols[static_cast<std::size_t>(
            valptr[static_cast<std::size_t>(l)] +
            (code - mincode[static_cast<std::size_t>(l)]))];
      }
      code = (code << 1) | (br.get_bit() ? 1 : 0);
    }
    throw util::DecodeError("progressive: bad Huffman code");
  }
};

// ---- scan emission (shared between the counting and writing passes) -------

struct CountSink {
  std::array<std::array<std::uint32_t, 256>, 2>& freq;
  void symbol(int table, std::uint8_t s) {
    ++freq[static_cast<std::size_t>(table)][s];
  }
  void bits(std::uint64_t, int) {}
};

struct WriteSink {
  util::BitWriter& bw;
  const std::vector<HuffTable>& tables;
  void symbol(int table, std::uint8_t s) {
    const HuffTable& t = tables[static_cast<std::size_t>(table)];
    bw.put_bits(t.code[s], t.len[s]);
  }
  void bits(std::uint64_t v, int n) { bw.put_bits(v, n); }
};

template <typename Sink>
void emit_ac_band(const std::array<int, 64>& blk, int ss, int se, int table,
                  Sink& sink) {
  int run = 0;
  for (int i = ss; i <= se; ++i) {
    const int v = blk[static_cast<std::size_t>(i)];
    if (v == 0) {
      ++run;
      continue;
    }
    while (run > 15) {
      sink.symbol(table, 0xF0);  // ZRL
      run -= 16;
    }
    const int t = size_cat(v);
    if (t > 15) throw std::logic_error("progressive: AC category overflow");
    sink.symbol(table, static_cast<std::uint8_t>((run << 4) | t));
    sink.bits(mag_bits(v, t), t);
    run = 0;
  }
  if (run > 0) sink.symbol(table, 0x00);  // EOB
}

template <typename Sink>
void emit_coded_scan(const std::vector<PlaneCoeffs>& planes,
                     const ScanSpec& spec, Sink& sink) {
  const bool has_dc = spec.kind == kFull || spec.kind == kDcFirst;
  const bool has_ac = spec.kind == kFull || spec.kind == kAcBand;
  const int ac_table = spec.kind == kFull ? 1 : 0;
  const int ac_ss = spec.kind == kFull ? 1 : spec.ss;
  for (const PlaneCoeffs& pc : planes) {
    int prev = 0;  // DC predictor restarts at every plane
    for (const auto& blk : pc.q) {
      if (has_dc) {
        const int coded = point_transform(blk[0], spec.al);
        const int diff = coded - prev;
        prev = coded;
        const int t = size_cat(diff);
        if (t > 15) {
          throw std::logic_error("progressive: DC category overflow");
        }
        sink.symbol(0, static_cast<std::uint8_t>(t));
        if (t > 0) sink.bits(mag_bits(diff, t), t);
      }
      if (has_ac) emit_ac_band(blk, ac_ss, spec.se, ac_table, sink);
    }
  }
}

// DC refinement: per block, one bit for "the dropped low bit was nonzero"
// plus a sign bit only when the coarse value was 0 (otherwise the sign is
// the coarse value's own).
void write_dc_refine(const std::vector<PlaneCoeffs>& planes,
                     util::BitWriter& bw) {
  for (const PlaneCoeffs& pc : planes) {
    for (const auto& blk : pc.q) {
      const int v = blk[0];
      const int trunc = point_transform(v, 1);
      const int r = v - trunc * 2;  // in {-1, 0, 1}
      bw.put_bit(r != 0);
      if (r != 0 && trunc == 0) bw.put_bit(r > 0);
    }
  }
}

// ---- decode ---------------------------------------------------------------

// Delivered quantized coefficients (zigzag order) per plane per block.
using CoeffState = std::vector<std::vector<std::array<int, 64>>>;

void decode_coded_scan(CoeffState& vq, const ScanSpec& spec,
                       const std::vector<HuffDecoder>& tables,
                       util::BitReader& br) {
  const bool has_dc = spec.kind == kFull || spec.kind == kDcFirst;
  const bool has_ac = spec.kind == kFull || spec.kind == kAcBand;
  const int ac_table = spec.kind == kFull ? 1 : 0;
  const int ac_ss = spec.kind == kFull ? 1 : spec.ss;
  for (auto& plane : vq) {
    int prev = 0;
    for (auto& blk : plane) {
      if (has_dc) {
        const int t = tables[0].decode(br);
        if (t > 15) {
          throw util::DecodeError("progressive: bad DC category");
        }
        prev += mag_value(br.get_bits(t), t);
        // With al=1 the coarse value reconstructs at doubled step; the
        // refinement scan later restores the dropped bit.
        blk[0] = spec.al != 0 ? prev * 2 : prev;
      }
      if (has_ac) {
        int i = ac_ss;
        while (i <= spec.se) {
          const std::uint8_t rs = tables[static_cast<std::size_t>(ac_table)]
                                      .decode(br);
          const int run = rs >> 4;
          const int t = rs & 15;
          if (t == 0) {
            if (run == 0) break;  // EOB
            if (run != 15) {
              throw util::DecodeError("progressive: bad AC symbol");
            }
            i += 16;  // ZRL
            if (i > spec.se) {
              throw util::DecodeError("progressive: AC run overflow");
            }
            continue;
          }
          i += run;
          if (i > spec.se) {
            throw util::DecodeError("progressive: AC run overflow");
          }
          blk[static_cast<std::size_t>(i)] = mag_value(br.get_bits(t), t);
          ++i;
        }
      }
    }
  }
}

void decode_dc_refine(CoeffState& vq, util::BitReader& br) {
  for (auto& plane : vq) {
    for (auto& blk : plane) {
      const int trunc = blk[0] / 2;  // coarse value was stored as trunc*2
      if (br.get_bit()) {
        const int sign =
            trunc != 0 ? (trunc > 0 ? 1 : -1) : (br.get_bit() ? 1 : -1);
        blk[0] = trunc * 2 + sign;
      }
    }
  }
}

struct PlaneShape {
  int w = 0, h = 0;
  std::array<int, 64> quant{};
};

std::vector<PlaneShape> plane_shapes(int w, int h, int channels,
                                     int quality) {
  std::vector<PlaneShape> shapes;
  shapes.push_back({w, h, detail::scaled_quant(detail::kLumaQuant, quality)});
  if (channels == 3) {
    const auto cq = detail::scaled_quant(detail::kChromaQuant, quality);
    shapes.push_back({(w + 1) / 2, (h + 1) / 2, cq});
    shapes.push_back({(w + 1) / 2, (h + 1) / 2, cq});
  }
  return shapes;
}

PrefixDecode decode_impl(const std::vector<std::uint8_t>& bytes,
                         bool require_all) {
  if (bytes.size() < kV2HeaderBytes) {
    throw util::DecodeError("progressive: truncated header");
  }
  util::ByteReader hr(bytes);
  if (hr.get_u32() != kProgressiveMagic) {
    throw util::DecodeError("progressive: bad magic");
  }
  const int w = static_cast<int>(hr.get_u32());
  const int h = static_cast<int>(hr.get_u32());
  const int channels = hr.get_u8();
  const int quality = hr.get_u8();
  const int scan_count = hr.get_u8();
  hr.get_u8();  // reserved
  if (w <= 0 || h <= 0 || w > (1 << 16) || h > (1 << 16) ||
      (channels != 1 && channels != 3) || quality < 1 || quality > 100 ||
      scan_count < 1 || scan_count > kMaxScans) {
    throw util::DecodeError("progressive: bad header");
  }
  const std::size_t dir_end =
      kV2HeaderBytes + 4 * static_cast<std::size_t>(scan_count);
  if (bytes.size() < dir_end) {
    throw util::DecodeError("progressive: truncated directory");
  }
  std::vector<std::uint32_t> seg_len;
  for (int k = 0; k < scan_count; ++k) seg_len.push_back(hr.get_u32());
  // Any decode needs one whole scan, and a scan codes every block.
  detail::check_coded_size(w, h, channels, bytes.size() - dir_end);

  const std::vector<PlaneShape> shapes =
      plane_shapes(w, h, channels, quality);
  CoeffState vq;
  for (const PlaneShape& s : shapes) {
    const std::size_t blocks =
        static_cast<std::size_t>((s.w + 7) / 8) *
        static_cast<std::size_t>((s.h + 7) / 8);
    vq.emplace_back(blocks, std::array<int, 64>{});
  }

  int decoded = 0;
  int dc_precision = -1;  // -1: DC not seen, 1: coarse (al=1), 0: exact
  double mse_last = 0.0;
  std::size_t off = dir_end;
  for (int k = 0; k < scan_count; ++k) {
    const std::size_t len = seg_len[static_cast<std::size_t>(k)];
    if (len > bytes.size() || off + len > bytes.size()) break;  // truncated
    util::ByteReader sr(std::span<const std::uint8_t>(bytes).subspan(off, len));
    if (sr.get_u16() != kScanMarker) {
      throw util::DecodeError("progressive: bad scan marker");
    }
    if (sr.get_u8() != k) {
      throw util::DecodeError("progressive: scan index mismatch");
    }
    const int kind = sr.get_u8();
    ScanSpec spec;
    spec.ss = sr.get_u8();
    spec.se = sr.get_u8();
    spec.al = sr.get_u8();
    bool ok = false;
    switch (kind) {
      case kFull:
        ok = spec.ss == 0 && spec.se == 63 && spec.al == 0;
        break;
      case kDcFirst:
        ok = spec.ss == 0 && spec.se == 0 && spec.al <= 1;
        break;
      case kAcBand:
        ok = spec.ss >= 1 && spec.ss <= spec.se && spec.se <= 63 &&
             spec.al == 0;
        break;
      case kDcRefine:
        ok = spec.ss == 0 && spec.se == 0 && spec.al == 1 &&
             dc_precision == 1;
        break;
      default:
        break;
    }
    if (!ok) throw util::DecodeError("progressive: bad scan header");
    spec.kind = static_cast<ScanKind>(kind);
    const float mse = sr.get_f32();
    if (!(mse >= 0.0f) || !std::isfinite(mse)) {
      throw util::DecodeError("progressive: bad residual field");
    }
    const int n_tables = sr.get_u8();
    const int want_tables =
        spec.kind == kDcRefine ? 0 : (spec.kind == kFull ? 2 : 1);
    if (n_tables != want_tables) {
      throw util::DecodeError("progressive: table count mismatch");
    }
    std::vector<HuffDecoder> tables;
    for (int i = 0; i < n_tables; ++i) {
      tables.push_back(HuffDecoder::parse(sr));
    }
    const std::uint32_t payload_len = sr.get_u32();
    if (payload_len != sr.remaining()) {
      throw util::DecodeError("progressive: scan framing mismatch");
    }
    const std::vector<std::uint8_t> payload =
        sr.get_bytes(static_cast<std::size_t>(payload_len));
    util::BitReader br(payload);
    if (spec.kind == kDcRefine) {
      decode_dc_refine(vq, br);
      dc_precision = 0;
    } else {
      decode_coded_scan(vq, spec, tables, br);
      if (spec.kind == kFull || spec.kind == kDcFirst) {
        dc_precision = spec.al;
      }
    }
    mse_last = mse;
    decoded = k + 1;
    off += len;
  }

  if (decoded == 0) {
    throw util::DecodeError("progressive: no complete scan");
  }
  if (require_all && decoded < scan_count) {
    throw util::DecodeError("progressive: truncated stream");
  }

  // Reconstruct: dequantize whatever was delivered, inverse DCT, unshift.
  std::vector<Plane> planes;
  for (std::size_t p = 0; p < shapes.size(); ++p) {
    Plane plane = detail::make_plane(shapes[p].w, shapes[p].h);
    const int bw8 = plane.padded_w() / 8;
    float coeff[64], block[64];
    for (std::size_t b = 0; b < vq[p].size(); ++b) {
      const auto& blk = vq[p][b];
      for (int i = 0; i < 64; ++i) {
        coeff[kZigzag[static_cast<std::size_t>(i)]] =
            static_cast<float>(blk[static_cast<std::size_t>(i)]) *
            static_cast<float>(
                shapes[p].quant[static_cast<std::size_t>(i)]);
      }
      inverse_dct_8x8(coeff, block);
      const int bx = static_cast<int>(b) % bw8;
      const int by = static_cast<int>(b) / bw8;
      for (int y = 0; y < 8; ++y) {
        for (int x = 0; x < 8; ++x) {
          plane.at(bx * 8 + x, by * 8 + y) = block[y * 8 + x] + 128.0f;
        }
      }
    }
    planes.push_back(std::move(plane));
  }

  PrefixDecode out;
  out.image = detail::planes_to_image(w, h, channels, planes);
  out.scans_decoded = decoded;
  out.scans_total = scan_count;
  out.psnr_estimate =
      mse_last <= 1e-9
          ? 99.0
          : std::min(99.0, 10.0 * std::log10(255.0 * 255.0 / mse_last));
  return out;
}

}  // namespace

ProgressiveStream encode_progressive(const Image& src, int quality,
                                     int scans) {
  if (src.empty()) {
    throw std::invalid_argument("encode_progressive: empty image");
  }
  quality = std::clamp(quality, 1, 100);
  const std::vector<ScanSpec> script = scan_script(scans);
  const int S = static_cast<int>(script.size());

  const auto lq = detail::scaled_quant(detail::kLumaQuant, quality);
  const auto cq = detail::scaled_quant(detail::kChromaQuant, quality);
  const std::vector<Plane> planes = detail::to_planes(src);
  std::vector<PlaneCoeffs> pcs;
  double total_samples = 0.0;
  for (std::size_t p = 0; p < planes.size(); ++p) {
    pcs.push_back(analyze_plane(planes[p], p == 0 ? lq : cq));
    total_samples += static_cast<double>(planes[p].padded_w()) *
                     static_cast<double>(planes[p].padded_h());
  }

  // Residual coefficient energy vs the source, updated scan by scan.  By
  // DCT orthonormality this equals the plane-domain squared error of the
  // partial reconstruction, so each scan header carries an exact MSE.
  double residual = 0.0;
  for (const PlaneCoeffs& pc : pcs) {
    for (const auto& o : pc.orig) {
      for (const float c : o) {
        residual += static_cast<double>(c) * static_cast<double>(c);
      }
    }
  }
  const auto delivered_delta = [](float orig, int value, int step) {
    // Error change when coefficient `orig` goes from undelivered (0) to
    // dequantized `value * step`.
    const double before = static_cast<double>(orig) * orig;
    const double err = static_cast<double>(orig) -
                       static_cast<double>(value) * static_cast<double>(step);
    return err * err - before;
  };

  std::vector<double> mse_after;
  mse_after.reserve(static_cast<std::size_t>(S));
  std::vector<std::vector<std::uint8_t>> segments;
  segments.reserve(static_cast<std::size_t>(S));

  for (int k = 0; k < S; ++k) {
    const ScanSpec& spec = script[static_cast<std::size_t>(k)];

    // Update the residual for every coefficient this scan delivers.
    for (const PlaneCoeffs& pc : pcs) {
      for (std::size_t b = 0; b < pc.q.size(); ++b) {
        const auto& blk = pc.q[b];
        const auto& org = pc.orig[b];
        if (spec.kind == kFull || spec.kind == kDcFirst) {
          const int coarse = point_transform(blk[0], spec.al) * (1 << spec.al);
          if (coarse != 0) {
            residual += delivered_delta(org[0], coarse, pc.quant[0]);
          }
        }
        if (spec.kind == kDcRefine) {
          const int coarse = point_transform(blk[0], 1) * 2;
          if (blk[0] != coarse) {
            const double step = static_cast<double>(pc.quant[0]);
            const double e_old =
                static_cast<double>(org[0]) - coarse * step;
            const double e_new =
                static_cast<double>(org[0]) - blk[0] * step;
            residual += e_new * e_new - e_old * e_old;
          }
        }
        if (spec.kind == kFull || spec.kind == kAcBand) {
          const int ss = spec.kind == kFull ? 1 : spec.ss;
          for (int i = ss; i <= spec.se; ++i) {
            const int v = blk[static_cast<std::size_t>(i)];
            if (v != 0) {
              residual += delivered_delta(
                  org[static_cast<std::size_t>(i)], v,
                  pc.quant[static_cast<std::size_t>(i)]);
            }
          }
        }
      }
    }
    const double mse = std::max(residual, 0.0) / total_samples;
    mse_after.push_back(mse);

    // Frame the segment.
    util::ByteWriter seg;
    seg.put_u16(kScanMarker);
    seg.put_u8(static_cast<std::uint8_t>(k));
    seg.put_u8(static_cast<std::uint8_t>(spec.kind));
    seg.put_u8(static_cast<std::uint8_t>(spec.ss));
    seg.put_u8(static_cast<std::uint8_t>(spec.se));
    seg.put_u8(static_cast<std::uint8_t>(spec.al));
    seg.put_f32(static_cast<float>(mse));

    std::vector<std::uint8_t> payload;
    if (spec.kind == kDcRefine) {
      seg.put_u8(0);
      util::BitWriter bw;
      write_dc_refine(pcs, bw);
      payload = bw.finish();
    } else {
      std::array<std::array<std::uint32_t, 256>, 2> freq{};
      CountSink counter{freq};
      emit_coded_scan(pcs, spec, counter);
      const int n_tables = spec.kind == kFull ? 2 : 1;
      std::vector<HuffTable> tables;
      for (int i = 0; i < n_tables; ++i) {
        tables.push_back(build_huffman(freq[static_cast<std::size_t>(i)]));
      }
      seg.put_u8(static_cast<std::uint8_t>(n_tables));
      for (const HuffTable& t : tables) serialize_table(t, seg);
      util::BitWriter bw;
      WriteSink writer{bw, tables};
      emit_coded_scan(pcs, spec, writer);
      payload = bw.finish();
    }
    seg.put_u32(static_cast<std::uint32_t>(payload.size()));
    seg.put_bytes(payload);
    segments.push_back(seg.take());
  }

  util::ByteWriter out;
  out.put_u32(kProgressiveMagic);
  out.put_u32(static_cast<std::uint32_t>(src.width()));
  out.put_u32(static_cast<std::uint32_t>(src.height()));
  out.put_u8(static_cast<std::uint8_t>(src.channels()));
  out.put_u8(static_cast<std::uint8_t>(quality));
  out.put_u8(static_cast<std::uint8_t>(S));
  out.put_u8(0);
  for (const auto& seg : segments) {
    out.put_u32(static_cast<std::uint32_t>(seg.size()));
  }

  ProgressiveStream stream;
  stream.bytes = out.take();
  for (const auto& seg : segments) {
    stream.bytes.insert(stream.bytes.end(), seg.begin(), seg.end());
    stream.scan_ends.push_back(stream.bytes.size());
  }
  stream.mse_after_scan = std::move(mse_after);
  return stream;
}

PrefixDecode decode_prefix(const std::vector<std::uint8_t>& bytes) {
  return decode_impl(bytes, /*require_all=*/false);
}

Image decode_progressive(const std::vector<std::uint8_t>& bytes) {
  return decode_impl(bytes, /*require_all=*/true).image;
}

bool is_progressive(const std::vector<std::uint8_t>& bytes) noexcept {
  return bytes.size() >= 4 &&
         (static_cast<std::uint32_t>(bytes[0]) |
          (static_cast<std::uint32_t>(bytes[1]) << 8) |
          (static_cast<std::uint32_t>(bytes[2]) << 16) |
          (static_cast<std::uint32_t>(bytes[3]) << 24)) == kProgressiveMagic;
}

}  // namespace bees::img
