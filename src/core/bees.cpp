#include "core/bees.hpp"

#include <algorithm>

#include "index/serialize.hpp"
#include "submodular/graph.hpp"

namespace bees::core {

BatchReport BeesScheme::upload_batch(const std::vector<wl::ImageSpec>& batch,
                                     cloud::Server& server,
                                     net::Channel& channel,
                                     energy::Battery& battery) {
  BatchReport report;
  const std::uint64_t key = batch_key(batch);
  const bool resuming = progress_.active && progress_.key == key;
  if (!resuming) {
    // Fresh batch (or the caller moved on from an aborted one): knobs are
    // read once from the battery and pinned for the batch's whole lifetime,
    // resumptions included (the paper adapts per upload round).
    progress_ = {};
    progress_.active = true;
    progress_.key = key;
    progress_.knobs =
        adaptive_ ? energy::adapt::Knobs::from_battery(battery.fraction())
                  : energy::adapt::Knobs::full_energy();
    report.images_offered = static_cast<int>(batch.size());
    trace_ = {};
  }
  const energy::adapt::Knobs knobs = progress_.knobs;
  trace_.knobs = knobs;
  if (batch.empty()) {
    progress_ = {};
    return report;
  }

  net::Transport transport = make_transport(server, channel);
  const double anchor_s = channel.now();

  // --- AFE: approximate feature extraction on compressed bitmaps. ---
  std::vector<const feat::BinaryFeatures*> features(batch.size(), nullptr);
  {
    StageProbe stage("afe", report, anchor_s);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (i < progress_.features_extracted) {
        features[i] = &store().orb(batch[i], knobs.bitmap_compression);
        continue;
      }
      if (battery.depleted()) {
        report.aborted = true;
        return report;
      }
      const feat::BinaryFeatures& f =
          store().orb(batch[i], knobs.bitmap_compression);
      features[i] = &f;
      report.compute_seconds += charge_compute(f.stats.ops, battery);
      report.energy.extraction_j += config().cost.compute_energy(f.stats.ops);
      progress_.features_extracted = i + 1;
    }
  }

  std::vector<double> per_image_fbytes(batch.size(), 0.0);
  double fbytes = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    per_image_fbytes[i] =
        static_cast<double>(idx::serialize_binary(*features[i]).size());
    fbytes += per_image_fbytes[i];
  }

  // --- ARD part 1: cross-batch redundancy detection.  The batch's feature
  // sets ship in one bulk query message; the server answers with one
  // verdict per image. ---
  if (!progress_.features_sent) {
    StageProbe stage("cbrd", report, anchor_s);
    const auto request =
        net::encode_batch_query(features, per_image_fbytes, config().top_k);
    const auto env = exchange(transport, request, fbytes, TxKind::kFeature,
                              battery, report);
    if (!env) {  // retry budget exhausted; the round re-runs on resume
      report.aborted = true;
      return report;
    }
    progress_.verdicts =
        net::decode_batch_query_response(env->payload).verdicts;
    progress_.features_sent = true;
  }

  // --- ARD part 2: in-batch redundancy detection (SSMM, client side). ---
  if (!progress_.ssmm_done) {
    StageProbe stage("ibrd", report, anchor_s);
    if (battery.depleted()) {
      report.aborted = true;
      return report;
    }
    std::vector<std::size_t> survivors;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (progress_.verdicts[i].max_similarity > knobs.redundancy_threshold) {
        ++report.eliminated_cross_batch;
        trace_.cross_redundant.push_back(i);
      } else {
        survivors.push_back(i);
      }
    }

    std::vector<std::size_t> selected;
    if (!survivors.empty()) {
      std::vector<const feat::BinaryFeatures*> survivor_features;
      survivor_features.reserve(survivors.size());
      for (const std::size_t i : survivors) {
        survivor_features.push_back(features[i]);
      }
      std::uint64_t graph_ops = 0;
      const sub::SimilarityGraph graph = sub::build_similarity_graph(
          survivor_features, config().match, &graph_ops);
      report.compute_seconds += charge_compute(graph_ops, battery);
      report.energy.other_compute_j += config().cost.compute_energy(graph_ops);

      const sub::SsmmResult ssmm = sub::select_unique_images(
          graph, knobs.ssmm_threshold, config().ssmm);
      trace_.ssmm_budget = ssmm.budget;
      report.eliminated_in_batch =
          static_cast<int>(survivors.size() - ssmm.selected.size());
      selected.reserve(ssmm.selected.size());
      for (const std::size_t s : ssmm.selected) {
        selected.push_back(survivors[s]);
      }
    }
    std::sort(selected.begin(), selected.end());
    trace_.selected = selected;
    progress_.selected = std::move(selected);
    progress_.ssmm_done = true;
  }

  // --- AIU: approximate image uploading of the selected summary. ---
  StageProbe stage("aiu", report, anchor_s);
  while (progress_.next_upload < progress_.selected.size()) {
    const std::size_t i = progress_.selected[progress_.next_upload];
    if (battery.depleted()) {
      report.aborted = true;
      return report;
    }
    const wl::EncodedImage enc =
        store().encoded(batch[i], knobs.resolution_compression,
                        knobs.quality_proportion);
    report.compute_seconds += charge_compute(enc.ops, battery);
    report.energy.other_compute_j += config().cost.compute_energy(enc.ops);

    const double bytes = image_wire_bytes(enc.bytes);
    const wl::EncodedImage thumb = store().thumbnail(batch[i]);
    const auto request = net::encode_image_upload(
        *features[i], bytes, batch[i].geo, image_wire_bytes(thumb.bytes));
    const PayloadRef payload = image_payload(
        batch[i], knobs.resolution_compression, knobs.quality_proportion);
    const auto env = upload_payload(transport, payload.bytes, bytes, request,
                                    battery, report, payload.scan_ends);
    if (!env) {  // give up on this round; the image stays pending
      report.aborted = true;
      return report;
    }
    ++report.images_uploaded;
    progress_.next_upload += 1;
  }

  progress_ = {};
  return report;
}

}  // namespace bees::core
