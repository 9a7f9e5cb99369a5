#include "core/scheme.hpp"

#include <stdexcept>
#include <string>
#include <string_view>

#include "cloud/rpc.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace bees::core {

BatchReport& BatchReport::operator+=(const BatchReport& other) noexcept {
  energy += other.energy;
  compute_seconds += other.compute_seconds;
  feature_tx_seconds += other.feature_tx_seconds;
  image_tx_seconds += other.image_tx_seconds;
  rx_seconds += other.rx_seconds;
  feature_bytes += other.feature_bytes;
  image_bytes += other.image_bytes;
  rx_bytes += other.rx_bytes;
  retransmit_seconds += other.retransmit_seconds;
  backoff_seconds += other.backoff_seconds;
  retransmitted_bytes += other.retransmitted_bytes;
  images_offered += other.images_offered;
  images_uploaded += other.images_uploaded;
  eliminated_cross_batch += other.eliminated_cross_batch;
  eliminated_in_batch += other.eliminated_in_batch;
  retries += other.retries;
  gave_up += other.gave_up;
  chunks_sent += other.chunks_sent;
  chunks_deduped += other.chunks_deduped;
  chunks_resent += other.chunks_resent;
  aborted = aborted || other.aborted;
  return *this;
}

std::vector<NamedValue> BatchReport::named_values() const {
  const auto integral = [](const char* name, double v) {
    return NamedValue{name, v, true};
  };
  const auto real = [](const char* name, double v) {
    return NamedValue{name, v, false};
  };
  return {
      integral("images_offered", images_offered),
      integral("images_uploaded", images_uploaded),
      integral("eliminated_cross_batch", eliminated_cross_batch),
      integral("eliminated_in_batch", eliminated_in_batch),
      real("feature_bytes", feature_bytes),
      real("image_bytes", image_bytes),
      real("rx_bytes", rx_bytes),
      real("retransmitted_bytes", retransmitted_bytes),
      real("delivered_bytes", delivered_bytes()),
      real("compute_seconds", compute_seconds),
      real("feature_tx_seconds", feature_tx_seconds),
      real("image_tx_seconds", image_tx_seconds),
      real("rx_seconds", rx_seconds),
      real("retransmit_seconds", retransmit_seconds),
      real("backoff_seconds", backoff_seconds),
      real("busy_seconds", busy_seconds()),
      real("mean_delay_seconds", mean_delay_seconds()),
      integral("retries", retries),
      integral("gave_up", gave_up),
      integral("aborted", aborted ? 1.0 : 0.0),
      real("energy_extraction_j", energy.extraction_j),
      real("energy_other_compute_j", energy.other_compute_j),
      real("energy_feature_tx_j", energy.feature_tx_j),
      real("energy_image_tx_j", energy.image_tx_j),
      real("energy_retransmit_tx_j", energy.retransmit_tx_j),
      real("energy_rx_j", energy.rx_j),
      real("energy_idle_j", energy.idle_j),
      real("energy_active_j", energy.active_total()),
      real("energy_total_j", energy.total()),
      // Appended (names are append-only): chunk-manifest upload counters.
      integral("chunks_sent", chunks_sent),
      integral("chunks_deduped", chunks_deduped),
      integral("chunks_resent", chunks_resent),
  };
}

double BatchReport::value_of(const char* name) const {
  for (const NamedValue& v : named_values()) {
    if (std::string_view(v.name) == name) return v.value;
  }
  throw std::out_of_range(std::string("BatchReport: no value named ") + name);
}

void BatchReport::export_metrics(const std::string& prefix) const {
  if (!obs::enabled()) return;
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  for (const NamedValue& v : named_values()) {
    registry.add(prefix + "." + v.name, v.value);
  }
}

StageProbe::StageProbe(const char* name, const BatchReport& report,
                       double anchor_s)
    : name_(name),
      report_(&report),
      anchor_s_(anchor_s),
      start_busy_s_(0.0),
      active_(obs::enabled()) {
  if (active_) start_busy_s_ = report.busy_seconds();
}

StageProbe::~StageProbe() { end(); }

void StageProbe::end() {
  if (!active_) return;
  active_ = false;
  const double duration_s = report_->busy_seconds() - start_busy_s_;
  obs::MetricsRegistry::global().observe(
      std::string("core.stage.") + name_ + ".seconds", duration_s);
  obs::Tracer::global().add({name_, "scheme", anchor_s_ + start_busy_s_,
                             duration_s, obs::kLaneScheme});
}

double UploadScheme::transfer_down(double bytes, net::Channel& channel,
                                   energy::Battery& battery) const {
  const double seconds = channel.transfer(bytes);
  battery.drain(seconds * config_.cost.rx_power_w);
  return seconds;
}

double UploadScheme::charge_compute(std::uint64_t ops,
                                    energy::Battery& battery) const {
  const double seconds = config_.cost.compute_seconds(ops);
  battery.drain(config_.cost.compute_energy(ops));
  return seconds;
}

net::Transport UploadScheme::make_transport(cloud::Server& server,
                                            net::Channel& channel) const {
  if (server_handler_) {
    return net::Transport(server_handler_, channel, config_.retry);
  }
  return net::Transport(
      [&server](const std::vector<std::uint8_t>& request) {
        return cloud::dispatch(server, request);
      },
      channel, config_.retry);
}

std::optional<net::Envelope> UploadScheme::exchange(
    net::Transport& transport, const std::vector<std::uint8_t>& request,
    double wire_bytes, TxKind kind, energy::Battery& battery,
    BatchReport& report) const {
  const net::ExchangeResult res = transport.exchange(request, wire_bytes);
  if (wire_bytes < 0.0) wire_bytes = static_cast<double>(request.size());

  battery.drain((res.tx_seconds + res.wasted_seconds) * config_.cost.tx_power_w);
  report.retries += res.retries;
  report.retransmit_seconds += res.wasted_seconds;
  report.backoff_seconds += res.backoff_seconds;
  report.retransmitted_bytes += res.retransmitted_bytes;
  report.energy.retransmit_tx_j += res.wasted_seconds * config_.cost.tx_power_w;

  if (!res.ok) {
    report.gave_up += 1;
    return std::nullopt;
  }

  const double tx_j = res.tx_seconds * config_.cost.tx_power_w;
  if (kind == TxKind::kFeature) {
    report.feature_tx_seconds += res.tx_seconds;
    report.feature_bytes += wire_bytes;
    report.energy.feature_tx_j += tx_j;
    obs::count("core.tx.feature_bytes", wire_bytes);
    obs::count("core.tx.feature_j", tx_j);
  } else {
    report.image_tx_seconds += res.tx_seconds;
    report.image_bytes += wire_bytes;
    report.energy.image_tx_j += tx_j;
    obs::count("core.tx.image_bytes", wire_bytes);
    obs::count("core.tx.image_j", tx_j);
  }
  return net::open_envelope(res.reply);
}

std::optional<net::Envelope> UploadScheme::upload_payload(
    net::Transport& transport, std::span<const std::uint8_t> payload,
    double modeled_bytes, const std::vector<std::uint8_t>& commit_request,
    energy::Battery& battery, BatchReport& report,
    std::span<const std::size_t> scan_ends) {
  net::ChunkUploadStats stats;
  const auto reply = chunk_uploader_.upload_scans(
      payload, scan_ends, modeled_bytes, commit_request,
      [&](const std::vector<std::uint8_t>& request, double wire_bytes,
          bool image_payload) {
        return exchange(transport, request, wire_bytes,
                        image_payload ? TxKind::kImage : TxKind::kFeature,
                        battery, report);
      },
      &stats);
  report.chunks_sent += static_cast<int>(stats.chunks_sent);
  report.chunks_deduped += static_cast<int>(stats.chunks_deduped);
  report.chunks_resent += static_cast<int>(stats.chunks_resent);
  return reply;
}

UploadScheme::PayloadRef UploadScheme::image_payload(const wl::ImageSpec& spec,
                                                     double resolution_prop,
                                                     double quality_prop) {
  if (!config_.chunking.enabled) return {};
  if (config_.progressive.enabled) {
    const img::ProgressiveStream& stream = store_->progressive_payload(
        spec, resolution_prop, quality_prop, config_.progressive.scans);
    return {stream.bytes, stream.scan_ends};
  }
  return {store_->encoded_payload(spec, resolution_prop, quality_prop), {}};
}

UploadScheme::PayloadRef UploadScheme::original_image_payload(
    const wl::ImageSpec& spec) {
  return image_payload(spec, 0.0, store_->original_quality_prop());
}

std::uint64_t batch_key(const std::vector<wl::ImageSpec>& batch) {
  // FNV-1a over the per-image cache keys: stable across runs, and distinct
  // batches collide only with negligible probability.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const wl::ImageSpec& spec : batch) {
    std::uint64_t k = spec.cache_key();
    for (int i = 0; i < 8; ++i) {
      h ^= (k >> (i * 8)) & 0xffULL;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

}  // namespace bees::core
