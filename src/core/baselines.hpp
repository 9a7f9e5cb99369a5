// The paper's comparison schemes:
//   - DirectUpload: ship every image as shot, no feature work.
//   - SmartEye (Hua et al., INFOCOM 2015): PCA-SIFT features uploaded for
//     cross-batch redundancy detection; unique images uploaded as shot.
//   - MRC (Dao et al., CoNEXT 2014): ORB features uploaded for cross-batch
//     redundancy detection with thumbnail feedback from the server; unique
//     images uploaded as shot.
// None of them performs in-batch elimination, approximate extraction,
// upload compression, or energy adaptation — those are BEES's additions.
//
// All of them, and PhotoNet (core/photonet.hpp), run one protocol, the
// QueryThenUploadScheme engine: phase 1 queries every image against the
// server index as it stood at batch start, phase 2 uploads the images
// judged unique, as shot.  Nothing is inserted until phase 2, so in-batch
// similar images cannot match each other — the blind spot the paper
// ascribes to the existing schemes (§I challenge 1).  The engine owns the
// resume bookkeeping, the `query` / `upload` stage probes, the
// battery-death and transport-give-up aborts and the as-shot upload; a
// scheme supplies its extraction, query message, verdict and upload
// envelope through four hooks.
#pragma once

#include "core/scheme.hpp"
#include "features/pca.hpp"
#include "workload/imageset.hpp"

namespace bees::core {

class QueryThenUploadScheme : public UploadScheme {
 public:
  /// Resumes an aborted batch mid-phase when called again with the same
  /// batch: images_offered is counted once, each extraction is charged
  /// once, and no delivered query round or stored image is repeated.
  BatchReport upload_batch(const std::vector<wl::ImageSpec>& batch,
                           cloud::Server& server, net::Channel& channel,
                           energy::Battery& battery) final;

 protected:
  /// `threshold` is the similarity above which a queried image is
  /// redundant.  Without one (DirectUpload) there is no query phase: no
  /// `query` probe or battery check, the query hooks are never called, and
  /// every image uploads.
  QueryThenUploadScheme(std::string name, wl::ImageStore& store,
                        SchemeConfig config, std::optional<double> threshold)
      : UploadScheme(std::move(name), store, std::move(config)),
        threshold_(threshold) {}

  /// One image's query message and its modelled wire size.
  struct Query {
    std::vector<std::uint8_t> request;
    double feature_bytes = 0.0;
  };

  /// Extracts one image's features (given its batch index) and returns
  /// the CPU ops to charge.  Runs once per image, in batch order.
  virtual std::uint64_t extract(const wl::ImageSpec&, std::size_t) {
    return 0;
  }
  /// Builds one image's query round from its extracted features.
  virtual Query query(const wl::ImageSpec&, std::size_t) { return {}; }
  /// The verdict: above the threshold is redundant.  MRC charges its
  /// thumbnail feedback here first.
  virtual bool redundant(const net::QueryResponse& verdict, net::Channel&,
                         energy::Battery&, BatchReport&) {
    return verdict.max_similarity > *threshold_;
  }
  /// The upload envelope of one image shipped as shot at `image_bytes`.
  virtual std::vector<std::uint8_t> upload_request(const wl::ImageSpec& spec,
                                                   std::size_t i,
                                                   double image_bytes) = 0;

 private:
  struct Progress {
    bool active = false;
    std::uint64_t key = 0;            ///< batch_key of the batch.
    std::size_t extracted = 0;        ///< Images whose extraction was charged.
    std::size_t queried = 0;          ///< Images with a delivered query round.
    std::vector<std::size_t> unique;  ///< Verdict: upload in phase 2.
    std::size_t next_upload = 0;      ///< Index into `unique`.
  };

  std::optional<double> threshold_;
  Progress progress_;
};

class DirectUploadScheme final : public QueryThenUploadScheme {
 public:
  DirectUploadScheme(wl::ImageStore& store, SchemeConfig config)
      : QueryThenUploadScheme("DirectUpload", store, std::move(config),
                              std::nullopt) {}

 private:
  std::vector<std::uint8_t> upload_request(const wl::ImageSpec& spec,
                                           std::size_t,
                                           double image_bytes) override {
    return net::encode(
        net::PlainUploadRequest{.image_bytes = image_bytes, .geo = spec.geo});
  }
};

class SmartEyeScheme final : public QueryThenUploadScheme {
 public:
  /// `pca` is the offline-trained PCA-SIFT projection (see train_pca_model).
  SmartEyeScheme(wl::ImageStore& store, SchemeConfig config,
                 std::shared_ptr<const feat::PcaModel> pca)
      : QueryThenUploadScheme("SmartEye", store, std::move(config),
                              kSmartEyeSimilarityThreshold),
        pca_(std::move(pca)) {}

 private:
  /// PCA-SIFT extraction (SIFT + projection; stats carry the total work).
  std::uint64_t extract(const wl::ImageSpec& spec, std::size_t) override {
    return store().pca_sift(spec, *pca_).stats.ops;
  }
  Query query(const wl::ImageSpec& spec, std::size_t) override;
  std::vector<std::uint8_t> upload_request(const wl::ImageSpec& spec,
                                           std::size_t,
                                           double image_bytes) override {
    return net::encode_float_upload(store().pca_sift(spec, *pca_),
                                    image_bytes, spec.geo);
  }

  std::shared_ptr<const feat::PcaModel> pca_;
};

class MrcScheme final : public QueryThenUploadScheme {
 public:
  MrcScheme(wl::ImageStore& store, SchemeConfig config)
      : QueryThenUploadScheme("MRC", store, std::move(config),
                              kFixedSimilarityThreshold) {}

 private:
  /// Full-resolution ORB extraction (MRC does not compress bitmaps).
  std::uint64_t extract(const wl::ImageSpec& spec, std::size_t) override {
    return store().orb(spec, 0.0).stats.ops;
  }
  Query query(const wl::ImageSpec& spec, std::size_t) override;
  bool redundant(const net::QueryResponse& verdict, net::Channel& channel,
                 energy::Battery& battery, BatchReport& report) override;
  std::vector<std::uint8_t> upload_request(const wl::ImageSpec& spec,
                                           std::size_t,
                                           double image_bytes) override {
    const wl::EncodedImage thumb = store().thumbnail(spec);
    return net::encode_image_upload(store().orb(spec, 0.0), image_bytes,
                                    spec.geo, image_wire_bytes(thumb.bytes));
  }
};

/// Trains the PCA-SIFT projection on the SIFT descriptors of up to
/// `max_training_images` images from `training` (Ke & Sukthankar's offline
/// step, shared by SmartEye and the precision benches).
feat::PcaModel train_pca_model(wl::ImageStore& store,
                               const wl::Imageset& training,
                               std::size_t max_training_images = 24,
                               int output_dim = 36);

}  // namespace bees::core
