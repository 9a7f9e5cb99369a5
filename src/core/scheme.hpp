// The common interface every image-sharing scheme implements (BEES and the
// paper's comparison schemes).  A scheme processes one image batch end to
// end on the client: feature work, redundancy queries, payload uploads —
// charging every joule to the phone battery and every byte to the channel —
// and returns an itemized report that the benches aggregate into the
// paper's figures.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cloud/server.hpp"
#include "energy/battery.hpp"
#include "energy/cost_model.hpp"
#include "features/matching.hpp"
#include "net/channel.hpp"
#include "net/chunk_uploader.hpp"
#include "net/protocol.hpp"
#include "net/transport.hpp"
#include "submodular/ssmm.hpp"
#include "workload/image_store.hpp"

namespace bees::core {

/// Similarity threshold used by the non-adaptive binary-feature schemes
/// (MRC, BEES-EA): the paper's EDR law evaluated at full energy,
/// T = 0.013 + 0.006 * 1.0.
inline constexpr double kFixedSimilarityThreshold = 0.019;

/// SmartEye's redundancy threshold, calibrated for the PCA-SIFT similarity
/// landscape (unrelated pairs score ~0.02-0.05 there versus ~0.004-0.01
/// under ORB, so the binary threshold cannot be reused).  The paper seeds
/// redundant images at similarity > 0.3 precisely so that every scheme's
/// own operating threshold detects them.
inline constexpr double kSmartEyeSimilarityThreshold = 0.1;

/// Thumbnail feedback payload of the MRC protocol, in wire bytes (already
/// in the paper-scale byte domain, like scaled image payloads).
inline constexpr double kThumbnailBytes = 40.0 * 1024;

struct SchemeConfig {
  energy::CostModel cost;
  /// Multiplier from our codec's output bytes to paper-sized image payloads
  /// (~700 KB average originals); applied to image payloads only.
  double image_byte_scale = 1.0;
  /// Ranked hits requested from the server per query.
  int top_k = idx::kDefaultTopK;
  /// Matching parameters for client-side in-batch similarity (BEES IBRD).
  feat::BinaryMatchParams match;
  sub::SsmmParams ssmm;
  /// Retry/backoff policy for every client<->server exchange.  The default
  /// (no per-attempt timeout) leaves loss-free runs identical to the
  /// pre-transport byte/energy accounting.
  net::RetryPolicy retry;
  /// Chunk-manifest upload plane (see net::ChunkUploader).  Disabled by
  /// default, which keeps every upload byte-identical to the legacy
  /// whole-image protocol.
  net::ChunkingPolicy chunking;
  /// Progressive transfer plane (see imaging/progressive.hpp): when enabled
  /// alongside chunking, image payloads are encoded as v2 progressive
  /// streams and shipped scan by scan — each scan its own chunk-manifest
  /// unit via net::ChunkUploader::upload_scans.  The modelled byte and
  /// energy domains are untouched (decisions, energy and report numbers
  /// stay in the legacy domain); only the transfer plane restructures.
  struct ProgressivePolicy {
    bool enabled = false;
    int scans = 4;  ///< scans per stream, clamped to [1, img::kMaxScans]
  };
  ProgressivePolicy progressive;
};

/// One named scalar of a BatchReport: the export row every consumer
/// (CSV, metrics registry, bench JSON) reads instead of hand-listing
/// fields.  `integral` marks counts that print without a decimal point.
struct NamedValue {
  const char* name;
  double value;
  bool integral;
};

/// Everything one batch cost, itemized.
struct BatchReport {
  energy::EnergyBreakdown energy;
  double compute_seconds = 0.0;
  double feature_tx_seconds = 0.0;
  double image_tx_seconds = 0.0;
  double rx_seconds = 0.0;
  double feature_bytes = 0.0;
  double image_bytes = 0.0;
  double rx_bytes = 0.0;
  /// Airtime burnt on lost / timed-out attempts (transport layer).
  double retransmit_seconds = 0.0;
  /// Idle waits between retry attempts (exponential backoff).
  double backoff_seconds = 0.0;
  /// Bytes radiated on failed attempts; NOT part of feature/image bytes,
  /// which count delivered payload only.
  double retransmitted_bytes = 0.0;
  int images_offered = 0;
  int images_uploaded = 0;
  int eliminated_cross_batch = 0;
  int eliminated_in_batch = 0;
  /// Transport retries performed across the batch's exchanges.
  int retries = 0;
  /// Exchanges abandoned after exhausting the retry budget.
  int gave_up = 0;
  /// Chunk-manifest plane counters (zero while chunking is disabled):
  /// chunk payloads delivered, skipped because the server already held
  /// them, and delivered again after an earlier delivery.
  int chunks_sent = 0;
  int chunks_deduped = 0;
  int chunks_resent = 0;
  /// True if the batch did not finish (battery death, or a query round
  /// abandoned after exhausting retries).  Aborted batches can be resumed
  /// by calling upload_batch again with the same batch.
  bool aborted = false;

  /// Total client busy time — the quantity behind the Fig. 11 delay.
  double busy_seconds() const noexcept {
    return compute_seconds + feature_tx_seconds + image_tx_seconds +
           rx_seconds + retransmit_seconds + backoff_seconds;
  }
  /// Mean per-image delay over the batch (paper Fig. 11 metric).
  double mean_delay_seconds() const noexcept {
    return images_offered > 0 ? busy_seconds() / images_offered : 0.0;
  }
  /// Payload bytes that actually arrived, uplink and downlink — the
  /// Fig. 10 bandwidth-overhead quantity (retransmitted bytes excluded).
  double delivered_bytes() const noexcept {
    return feature_bytes + image_bytes + rx_bytes;
  }

  BatchReport& operator+=(const BatchReport& other) noexcept;
  /// Merges another batch's accounting into this one (alias of +=, for
  /// call sites that read better as a statement).
  BatchReport& merge(const BatchReport& other) noexcept {
    return *this += other;
  }

  /// Every field plus the derived totals as stable (name, value) rows.
  /// The ordering is fixed and names are append-only: exports built on it
  /// (CSV columns, metric names, BENCH_*.json baselines) stay comparable
  /// across revisions.
  std::vector<NamedValue> named_values() const;
  /// Looks up one named value; throws std::out_of_range on unknown names.
  double value_of(const char* name) const;
  /// Adds every named value to the global metrics registry as counters
  /// named `<prefix>.<name>`.  No-op while observability is disabled.
  void export_metrics(const std::string& prefix) const;
};

/// RAII probe around one client pipeline stage (AFE / CBRD / IBRD / AIU,
/// or a baseline's query / upload phase).  On destruction it charges the
/// stage's busy-seconds delta into the `core.stage.<name>.seconds`
/// histogram and emits a trace span on the scheme lane, anchored at the
/// channel clock as of batch start so multi-batch timelines stay
/// monotonic.  Fully inert while observability is disabled.
class StageProbe {
 public:
  StageProbe(const char* name, const BatchReport& report, double anchor_s);
  ~StageProbe();

  StageProbe(const StageProbe&) = delete;
  StageProbe& operator=(const StageProbe&) = delete;

  /// Ends the stage now instead of at scope exit (idempotent); lets
  /// sequential phases of one function each record their own span.
  void end();

 private:
  const char* name_;
  const BatchReport* report_;
  double anchor_s_;
  double start_busy_s_;
  bool active_;
};

/// Abstract image-sharing scheme.
class UploadScheme {
 public:
  UploadScheme(std::string name, wl::ImageStore& store, SchemeConfig config)
      : name_(std::move(name)),
        store_(&store),
        config_(std::move(config)),
        chunk_uploader_(config_.chunking) {}
  virtual ~UploadScheme() = default;

  UploadScheme(const UploadScheme&) = delete;
  UploadScheme& operator=(const UploadScheme&) = delete;

  const std::string& name() const noexcept { return name_; }
  const SchemeConfig& config() const noexcept { return config_; }

  /// Redirects every exchange this scheme makes to `handler` instead of
  /// binding cloud::dispatch on the upload_batch server argument — how the
  /// sim points schemes at a serve::Cluster (or any other server stand-in)
  /// without changing the upload_batch signature.  Pass nullptr to restore
  /// the default.  The handler must satisfy dispatch's contract: encoded
  /// reply or encoded error, never a throw.
  void set_server_handler(net::Transport::Handler handler) {
    server_handler_ = std::move(handler);
  }

  /// Uploads one batch.  The scheme must stop early (report.aborted) once
  /// the battery is depleted.
  virtual BatchReport upload_batch(const std::vector<wl::ImageSpec>& batch,
                                   cloud::Server& server, net::Channel& channel,
                                   energy::Battery& battery) = 0;

 protected:
  /// Which accounting bucket a delivered uplink payload belongs to.
  enum class TxKind { kFeature, kImage };

  wl::ImageStore& store() noexcept { return *store_; }

  /// Scales a codec payload size to the paper-scale image byte domain.
  double image_wire_bytes(std::size_t encoded_bytes) const noexcept {
    return static_cast<double>(encoded_bytes) * config_.image_byte_scale;
  }

  /// Runs one reliable request/reply exchange against the server through
  /// cloud::dispatch over `transport`, charging all airtime to the battery:
  /// the delivering attempt lands in the `kind` bucket (seconds, bytes and
  /// joules), failed attempts land in the retransmit bucket, and backoff
  /// waits accrue as idle time (energy-free here; lifetime runs charge the
  /// baseline draw on wall-clock).  Returns the opened reply envelope, or
  /// nullopt if the retry budget was exhausted (report.gave_up++).
  std::optional<net::Envelope> exchange(
      net::Transport& transport, const std::vector<std::uint8_t>& request,
      double wire_bytes, TxKind kind, energy::Battery& battery,
      BatchReport& report) const;

  /// Builds the transport all of this scheme's exchanges ride: dispatches
  /// into `server` over `channel` with the configured retry policy.
  net::Transport make_transport(cloud::Server& server,
                                net::Channel& channel) const;

  /// Uploads one image payload through the shared net::ChunkUploader — the
  /// single resumable-upload path every scheme rides.  `payload` holds the
  /// real encoded bytes (pass empty when chunking is disabled; the call is
  /// then exactly one exchange of `commit_request`, byte-identical to the
  /// legacy protocol), `modeled_bytes` their paper-domain wire size, and
  /// `commit_request` the scheme's legacy upload envelope.  Chunk-plane
  /// control messages are charged as feature traffic at encoded size;
  /// chunk data is charged as image traffic in the modelled domain.
  /// Accumulates chunk counters into `report`; returns the upload ack (or
  /// nullopt when the transport gave up — abort and resume later).
  /// With `scan_ends` non-empty (a progressive stream's scan boundaries),
  /// each scan rides as its own chunk-manifest unit (upload_scans).
  std::optional<net::Envelope> upload_payload(
      net::Transport& transport, std::span<const std::uint8_t> payload,
      double modeled_bytes, const std::vector<std::uint8_t>& commit_request,
      energy::Battery& battery, BatchReport& report,
      std::span<const std::size_t> scan_ends = {});

  /// Reference to one image's real payload bytes under the configured
  /// transfer plane.  Empty spans when chunking is disabled (legacy
  /// whole-envelope uploads need no payload); with the progressive plane
  /// enabled, the v2 stream plus its scan boundaries so upload_payload
  /// ships scan-by-scan.  Spans borrow from the ImageStore's caches and
  /// stay valid for the batch.
  struct PayloadRef {
    std::span<const std::uint8_t> bytes;
    std::span<const std::size_t> scan_ends;
  };
  /// Payload for the re-encoded variant (BEES AIU knobs).
  PayloadRef image_payload(const wl::ImageSpec& spec, double resolution_prop,
                           double quality_prop);
  /// Payload for the as-shot variant (Direct Upload & friends).
  PayloadRef original_image_payload(const wl::ImageSpec& spec);

  /// Transfers `bytes` downlink (RX energy).
  double transfer_down(double bytes, net::Channel& channel,
                       energy::Battery& battery) const;
  /// Charges CPU work and returns the compute time.
  double charge_compute(std::uint64_t ops, energy::Battery& battery) const;

 private:
  std::string name_;
  wl::ImageStore* store_;
  SchemeConfig config_;
  net::Transport::Handler server_handler_;  // overrides dispatch when set
  net::ChunkUploader chunk_uploader_;
};

/// Stable identity of a batch's content (hash of every image's cache key),
/// used by the schemes' resume bookkeeping to tell "same batch again after
/// an abort" from "a new batch".
std::uint64_t batch_key(const std::vector<wl::ImageSpec>& batch);

}  // namespace bees::core
