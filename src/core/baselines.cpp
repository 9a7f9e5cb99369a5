#include "core/baselines.hpp"

#include <numeric>

#include "index/serialize.hpp"

namespace bees::core {

BatchReport QueryThenUploadScheme::upload_batch(
    const std::vector<wl::ImageSpec>& batch, cloud::Server& server,
    net::Channel& channel, energy::Battery& battery) {
  BatchReport report;
  const auto abort_batch = [&report] {
    report.aborted = true;
    return report;
  };
  const std::uint64_t key = batch_key(batch);
  if (!progress_.active || progress_.key != key) {
    progress_ = {};
    progress_.active = true;
    progress_.key = key;
    report.images_offered = static_cast<int>(batch.size());
    if (!threshold_) {  // no query phase: every image is unique
      progress_.unique.resize(batch.size());
      std::iota(progress_.unique.begin(), progress_.unique.end(), 0);
    }
  }
  net::Transport transport = make_transport(server, channel);
  const double anchor_s = channel.now();

  // Phase 1 — extract and query every image against the server index as
  // of batch start.
  if (threshold_) {
    StageProbe query_stage("query", report, anchor_s);
    while (progress_.queried < batch.size()) {
      const std::size_t i = progress_.queried;
      if (battery.depleted()) return abort_batch();
      if (i >= progress_.extracted) {
        const std::uint64_t ops = extract(batch[i], i);
        report.compute_seconds += charge_compute(ops, battery);
        report.energy.extraction_j += config().cost.compute_energy(ops);
        progress_.extracted = i + 1;
      }
      const Query q = query(batch[i], i);
      const auto env = exchange(transport, q.request, q.feature_bytes,
                                TxKind::kFeature, battery, report);
      if (!env) return abort_batch();
      if (redundant(net::decode_query_response(env->payload), channel,
                    battery, report)) {
        ++report.eliminated_cross_batch;
      } else {
        progress_.unique.push_back(i);
      }
      progress_.queried = i + 1;
    }
  }

  // Phase 2 — upload the unique images as shot.  The photo already exists
  // as a camera JPEG; no client CPU is charged for it.
  StageProbe upload_stage("upload", report, anchor_s);
  while (progress_.next_upload < progress_.unique.size()) {
    const std::size_t i = progress_.unique[progress_.next_upload];
    if (battery.depleted()) return abort_batch();
    const double bytes = image_wire_bytes(store().original(batch[i]).bytes);
    const std::vector<std::uint8_t> request =
        upload_request(batch[i], i, bytes);
    const PayloadRef payload = original_image_payload(batch[i]);
    if (!upload_payload(transport, payload.bytes, bytes, request, battery,
                        report, payload.scan_ends)) {
      return abort_batch();
    }
    ++report.images_uploaded;
    progress_.next_upload += 1;
  }
  progress_ = {};
  return report;
}

QueryThenUploadScheme::Query SmartEyeScheme::query(const wl::ImageSpec& spec,
                                                   std::size_t) {
  const feat::FloatFeatures& features = store().pca_sift(spec, *pca_);
  const double fbytes =
      static_cast<double>(idx::serialize_float(features).size());
  return {net::encode_float_query(features, config().top_k, fbytes), fbytes};
}

QueryThenUploadScheme::Query MrcScheme::query(const wl::ImageSpec& spec,
                                              std::size_t) {
  const feat::BinaryFeatures& features = store().orb(spec, 0.0);
  const double fbytes =
      static_cast<double>(idx::serialize_binary(features).size());
  return {net::encode_binary_query(features, config().top_k, fbytes), fbytes};
}

bool MrcScheme::redundant(const net::QueryResponse& verdict,
                          net::Channel& channel, energy::Battery& battery,
                          BatchReport& report) {
  // MRC's protocol returns a thumbnail of the candidate match for
  // client-side verification — the extra downlink the paper points to in
  // Fig. 10 ("MRC consumes a little more bandwidth ... due to requiring
  // thumbnail feedback").  The payload is the stored image's measured
  // thumbnail size (kThumbnailBytes when the server has no record).
  if (verdict.best_id != idx::kInvalidImageId &&
      verdict.max_similarity > 0.0) {
    double thumb = verdict.thumbnail_bytes;
    if (thumb <= 0.0) thumb = kThumbnailBytes;
    const double rsecs = transfer_down(thumb, channel, battery);
    report.rx_seconds += rsecs;
    report.rx_bytes += thumb;
    report.energy.rx_j += rsecs * config().cost.rx_power_w;
  }
  return QueryThenUploadScheme::redundant(verdict, channel, battery, report);
}

feat::PcaModel train_pca_model(wl::ImageStore& store,
                               const wl::Imageset& training,
                               std::size_t max_training_images,
                               int output_dim) {
  std::vector<feat::FloatFeatures> sets;
  const std::size_t n = std::min(max_training_images, training.images.size());
  sets.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    sets.push_back(store.sift(training.images[i]));
  }
  return feat::fit_pca_sift(sets, output_dim);
}

}  // namespace bees::core
