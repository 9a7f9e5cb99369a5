// Reliable request/reply framing over a lossy Channel: per-attempt timeout,
// bounded exponential backoff with jitter, and a retry budget.  The server
// side is an abstract handler turning request bytes into reply bytes (the
// core layer binds cloud::dispatch; net stays below cloud in the layering),
// so every client<->server exchange of the simulation rides the encoded
// wire format and survives message loss the way a real uploader would.
//
// Model notes:
//   - Loss applies to the uplink message before the handler runs, so a lost
//     upload is never stored server-side and a retry cannot duplicate state.
//   - Replies are modelled as reliably delivered (piggybacked-ACK
//     semantics); the caller charges any reply payload it models (e.g. MRC
//     thumbnails) as explicit downlink bytes.
//   - Failed attempts leave their airtime on the channel clock and are
//     reported as wasted seconds / retransmitted bytes so the energy and
//     bandwidth accounting can charge them.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "net/channel.hpp"

namespace bees::net {

/// Retry/backoff policy for reliable exchanges.
struct RetryPolicy {
  /// Total send attempts per message (first try + retries).
  int max_attempts = 8;
  /// Per-attempt airtime deadline; kNoTimeout waits out any stall (the
  /// default keeps loss-free runs identical to the unframed transfers).
  double timeout_s = Channel::kNoTimeout;
  /// Backoff before retry k is min(base * 2^(k-1), max), jittered.
  double backoff_base_s = 0.5;
  double backoff_max_s = 8.0;
  /// Uniform +/- fraction applied to each backoff wait.
  double jitter = 0.25;
  /// Seed of the jitter stream (independent of the channel's RNG).
  std::uint64_t seed = 0xb0ff5eedULL;

  /// The wait before retrying after failed attempt number `attempt`
  /// (1-based): min(base * 2^(attempt-1), max), jittered by +/- `jitter`
  /// drawn from `rng`.  The rng is consumed only when a positive jittered
  /// wait is possible, exactly matching Transport::exchange's draws — so
  /// external retry loops (fleet devices, shed-aware clients) that share a
  /// policy reproduce the transport's backoff schedule bit-for-bit.
  double backoff_before(int attempt, util::Rng& rng) const noexcept;
};

/// What one reliable exchange cost.
struct ExchangeResult {
  std::vector<std::uint8_t> reply;  ///< Raw reply bytes (empty on give-up).
  bool ok = false;                  ///< Delivered within the retry budget.
  int attempts = 0;                 ///< Sends performed.
  int retries = 0;                  ///< attempts - 1.
  double tx_seconds = 0.0;          ///< Airtime of the delivering attempt.
  double wasted_seconds = 0.0;      ///< Airtime of failed attempts.
  double backoff_seconds = 0.0;     ///< Idle waits between attempts.
  double retransmitted_bytes = 0.0; ///< Bytes radiated on failed attempts.
};

class Transport {
 public:
  using Handler =
      std::function<std::vector<std::uint8_t>(const std::vector<std::uint8_t>&)>;

  Transport(Handler handler, Channel& channel, RetryPolicy policy = {});

  /// One reliable exchange.  `wire_bytes` overrides the payload size
  /// charged to the channel (simulated payloads differ from the encoded
  /// envelope — image pixels are modelled, not carried); a negative value
  /// charges request.size().
  ExchangeResult exchange(const std::vector<std::uint8_t>& request,
                          double wire_bytes = -1.0);

 private:
  Handler handler_;
  Channel* channel_;
  RetryPolicy policy_;
  util::Rng jitter_rng_;
};

}  // namespace bees::net
