#include "features/match_kernel.hpp"

#include <limits>

#include "features/match_lanes.hpp"
#include "obs/metrics.hpp"

namespace bees::feat {

namespace {

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

/// Per-byte popcounts of `x` (each byte holds 0..8): the first three SWAR
/// reduction steps of the classic popcount, without the final horizontal
/// sum.  Byte counts from up to 31 words can be added before the horizontal
/// sum, so multi-lane distances share one reduction.
inline std::uint64_t byte_counts(std::uint64_t x) noexcept {
  x -= (x >> 1) & 0x5555555555555555ull;
  x = (x & 0x3333333333333333ull) + ((x >> 2) & 0x3333333333333333ull);
  return (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0full;
}

/// Horizontal sum of the eight byte counts.
inline int reduce_bytes(std::uint64_t counts) noexcept {
  return static_cast<int>((counts * 0x0101010101010101ull) >> 56);
}

}  // namespace

struct MatchKernelImpl {
  /// The scalar SWAR scan loop, templated on the cross-check flag so the
  /// single-pass column bookkeeping compiles out of the forward-only path
  /// entirely.  Requires a and b non-empty.
  template <bool Cross>
  static void scan(const std::vector<Descriptor256>& a,
                   const std::vector<Descriptor256>& b,
                   const BinaryMatchParams& params, MatchWorkspace& ws) {
    constexpr int kIntMax = std::numeric_limits<int>::max();
    const std::size_t na = a.size();
    const std::size_t nb = b.size();
    int* col_best = ws.col_best_.data();
    int* col_second = ws.col_second_.data();
    std::size_t* col_best_i = ws.col_best_i_.data();

    for (std::size_t i = 0; i < na; ++i) {
      const std::uint64_t q0 = a[i].bits[0];
      const std::uint64_t q1 = a[i].bits[1];
      const std::uint64_t q2 = a[i].bits[2];
      const std::uint64_t q3 = a[i].bits[3];
      int best = kIntMax;
      int second = kIntMax;
      std::size_t best_j = kNone;
      for (std::size_t j = 0; j < nb; ++j) {
        // Early exit: the full distance can only grow from a partial sum,
        // so once the partial reaches the row's second-best (and, for
        // cross-checking, this column's second-best) neither side can be
        // updated and the remaining lanes are skipped.  Exact pruning:
        // every comparison the naive matcher acts on is still computed in
        // full, so winners and ties never change.
        const int d0 = reduce_bytes(byte_counts(q0 ^ b[j].bits[0]));
        if (d0 >= second && (!Cross || d0 >= col_second[j])) continue;
        const int d012 =
            d0 + reduce_bytes(byte_counts(q1 ^ b[j].bits[1]) +
                              byte_counts(q2 ^ b[j].bits[2]));
        if (d012 >= second && (!Cross || d012 >= col_second[j])) continue;
        const int d = d012 + reduce_bytes(byte_counts(q3 ^ b[j].bits[3]));
        if (d < best) {
          second = best;
          best = d;
          best_j = j;
        } else if (d < second) {
          second = d;
        }
        if (Cross) {
          if (d < col_best[j]) {
            col_second[j] = col_best[j];
            col_best[j] = d;
            col_best_i[j] = i;
          } else if (d < col_second[j]) {
            col_second[j] = d;
          }
        }
      }
      if (detail::passes_gates(best, second, params)) {
        ws.fwd_[i] = best_j;
        ws.fwd_dist_[i] = best;
      }
    }
  }

  /// The vector scan loop: a lane kernel fills the row's per-lane sums for
  /// every candidate branch-free, then a scalar decision scan walks the
  /// buffered sums — same winners, same tie order as scan<Cross>.
  ///
  /// A pair the scalar loop prunes (partial >= second, and >= col_second
  /// when cross-checking) can never update best/second or the column
  /// stats, because the full distance only grows from the partial that
  /// already reached the bound.  So the decision scan takes every full
  /// distance (the sums are all buffered anyway) behind the same
  /// `d < bound` guards — no-ops exactly where the scalar loop skipped —
  /// with none of the data-dependent prune branches the predictor cannot
  /// learn, which would otherwise eat the vector win.
  template <bool Cross>
  static void scan_simd(const std::vector<Descriptor256>& a,
                        const std::vector<Descriptor256>& b,
                        const BinaryMatchParams& params, MatchWorkspace& ws,
                        detail::LaneRowFn lane_rows) {
    constexpr int kIntMax = std::numeric_limits<int>::max();
    const std::size_t na = a.size();
    const std::size_t nb = b.size();
    // Candidates are processed in tiles so the sums the vector kernel just
    // wrote are still in L1 when the decision scan reads them back (at a
    // few hundred candidates a full row of sums starts evicting itself).
    constexpr std::size_t kTile = 128;
    const std::size_t tile = nb < kTile ? nb : kTile;
    ws.row_sums_.resize(detail::kLaneBlock * tile);
    std::uint64_t* sums = ws.row_sums_.data();
    int* col_best = ws.col_best_.data();
    int* col_second = ws.col_second_.data();
    std::size_t* col_best_i = ws.col_best_i_.data();

    for (std::size_t i = 0; i < na; ++i) {
      int best = kIntMax;
      int second = kIntMax;
      std::size_t best_j = kNone;
      for (std::size_t t0 = 0; t0 < nb; t0 += tile) {
      const std::size_t tn = nb - t0 < tile ? nb - t0 : tile;
      lane_rows(a[i], b.data() + t0, tn, sums);
      for (std::size_t jt = 0; jt < tn; ++jt) {
        const std::size_t j = t0 + jt;
        const std::uint64_t* s = sums + detail::kLaneBlock * jt;
        const int d = static_cast<int>(s[0] + s[1] + s[2] + s[3]);
        // Updates guarded exactly as in the fused loop; where the scalar
        // loop pruned, these guards are provably false.
        if (d < second) {
          if (d < best) {
            second = best;
            best = d;
            best_j = j;
          } else {
            second = d;
          }
        }
        if (Cross) {
          if (d < col_second[j]) {
            if (d < col_best[j]) {
              col_second[j] = col_best[j];
              col_best[j] = d;
              col_best_i[j] = i;
            } else {
              col_second[j] = d;
            }
          }
        }
      }
      }
      if (detail::passes_gates(best, second, params)) {
        ws.fwd_[i] = best_j;
        ws.fwd_dist_[i] = best;
      }
    }
  }

  /// Fills workspace.fwd_/fwd_dist_ with the gated forward matches of every
  /// a-descriptor and (when `cross_check`) workspace.col_* with the reverse
  /// best/second/winner per b-descriptor; charges the modeled comparison
  /// count.  Requires a and b non-empty.
  static void run(const std::vector<Descriptor256>& a,
                  const std::vector<Descriptor256>& b,
                  const BinaryMatchParams& params, std::uint64_t* ops,
                  MatchWorkspace& ws) {
    constexpr int kIntMax = std::numeric_limits<int>::max();
    const std::size_t na = a.size();
    const std::size_t nb = b.size();
    const bool cross = params.cross_check;

    ws.fwd_.assign(na, kNone);
    ws.fwd_dist_.assign(na, 0);
    if (cross) {
      ws.col_best_.assign(nb, kIntMax);
      ws.col_second_.assign(nb, kIntMax);
      ws.col_best_i_.assign(nb, kNone);
    }

    const detail::ScanFn vector_scan = detail::active_scan();
    const detail::LaneRowFn lane_rows = detail::active_lane_rows();
    if (vector_scan != nullptr) {
      ws.scan_blocks_.resize(detail::scan_block_words(nb));
      vector_scan(a.data(), na, b.data(), nb, params,
                  {ws.fwd_.data(), ws.fwd_dist_.data(), ws.col_best_.data(),
                   ws.col_second_.data(), ws.col_best_i_.data(),
                   ws.scan_blocks_.data()});
    } else if (lane_rows != nullptr) {
      if (cross) {
        scan_simd<true>(a, b, params, ws, lane_rows);
      } else {
        scan_simd<false>(a, b, params, ws, lane_rows);
      }
    } else if (cross) {
      scan<true>(a, b, params, ws);
    } else {
      scan<false>(a, b, params, ws);
    }
    if (vector_scan != nullptr || lane_rows != nullptr) {
      // Vector lane words actually computed (4 lanes x candidates per
      // query row).
      obs::count("feat.match.simd_lanes", static_cast<double>(4 * nb * na));
    }

    // Modeled comparisons, exactly as the naive matcher counts them: one
    // per (a, b) descriptor pair per direction.  The energy model consumes
    // this.
    const auto pairs = static_cast<std::uint64_t>(na) * nb;
    if (ops) *ops += cross ? 2 * pairs : pairs;
  }

  /// Applies the distance/ratio gates to column j's reverse stats and
  /// returns the winning a-index, or kNone.
  static std::size_t reverse_winner(const MatchWorkspace& ws, std::size_t j,
                                    const BinaryMatchParams& params) {
    if (detail::passes_gates(ws.col_best_[j], ws.col_second_[j], params)) {
      return ws.col_best_i_[j];
    }
    return kNone;
  }

  /// Runs the scan and emits the surviving matches as (i, j, distance).
  template <typename Emit>
  static void matches(const std::vector<Descriptor256>& a,
                      const std::vector<Descriptor256>& b,
                      const BinaryMatchParams& params, std::uint64_t* ops,
                      MatchWorkspace& ws, Emit&& emit) {
    if (a.empty() || b.empty()) return;
    run(a, b, params, ops, ws);
    for (std::size_t i = 0; i < a.size(); ++i) {
      const std::size_t j = ws.fwd_[i];
      if (j == kNone) continue;
      if (params.cross_check && reverse_winner(ws, j, params) != i) continue;
      emit(i, j, ws.fwd_dist_[i]);
    }
  }
};

std::vector<Match> match_binary_kernel(const std::vector<Descriptor256>& a,
                                       const std::vector<Descriptor256>& b,
                                       const BinaryMatchParams& params,
                                       std::uint64_t* ops,
                                       MatchWorkspace& workspace) {
  std::vector<Match> out;
  MatchKernelImpl::matches(a, b, params, ops, workspace,
                           [&out](std::size_t i, std::size_t j, int dist) {
                             out.push_back({i, j, static_cast<double>(dist)});
                           });
  return out;
}

std::size_t match_binary_count(const std::vector<Descriptor256>& a,
                               const std::vector<Descriptor256>& b,
                               const BinaryMatchParams& params,
                               std::uint64_t* ops,
                               MatchWorkspace& workspace) {
  std::size_t count = 0;
  MatchKernelImpl::matches(a, b, params, ops, workspace,
                           [&count](std::size_t, std::size_t, int) {
                             ++count;
                           });
  return count;
}

}  // namespace bees::feat
