// End-to-end fault-tolerance tests: schemes driven over lossy channels must
// finish batches via transport retries, charge every retransmitted byte to
// the energy/bandwidth accounting, stay deterministic under a fixed seed,
// and resume aborted batches without duplicating delivered work.
//
// This suite is also the sanitizer workload (label "sanitize"): it crosses
// every layer — codecs, features, SSMM, wire codec, dispatch, transport —
// so an asan/ubsan build of just this target sweeps the whole stack.
#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "core/baselines.hpp"
#include "core/bees.hpp"
#include "core/photonet.hpp"
#include "core/simulation.hpp"

namespace bees::core {
namespace {

class FaultToleranceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    set_ = new wl::Imageset(wl::make_disaster_like(12, 3, 200, 150, 67));
    store_ = new wl::ImageStore();
    pca_ = new feat::PcaModel(train_pca_model(*store_, *set_, 4));
  }
  static void TearDownTestSuite() {
    delete pca_;
    delete store_;
    delete set_;
    pca_ = nullptr;
    store_ = nullptr;
    set_ = nullptr;
  }

  SchemeConfig config() const {
    SchemeConfig cfg;
    cfg.image_byte_scale = 4.0;
    return cfg;
  }
  static net::Channel lossy_channel(double loss, std::uint64_t seed = 17) {
    net::ChannelParams p = net::ChannelParams::fixed(256000.0);
    p.loss_probability = loss;
    p.seed = seed;
    return net::Channel(p);
  }
  std::shared_ptr<const feat::PcaModel> pca() const {
    return {pca_, [](const feat::PcaModel*) {}};
  }

  enum class AbortIn { kQueryPhase, kUploadPhase };
  using SchemeFactory = std::function<std::unique_ptr<UploadScheme>()>;

  /// Config of the resume tests: a short retry budget, so a dead link
  /// gives up fast (a loss-free link never retries).
  SchemeConfig resume_config() const {
    SchemeConfig cfg = config();
    cfg.retry.max_attempts = 2;
    return cfg;
  }

  /// Uploads the batch's first three images through a fresh scheme, so the
  /// batch has cross-batch redundancy for the query phase to find.
  void seed(cloud::Server& server, const SchemeFactory& make) const {
    const std::vector<wl::ImageSpec> prior(set_->images.begin(),
                                           set_->images.begin() + 3);
    net::Channel ch = lossy_channel(0.0);
    energy::Battery bat;
    ASSERT_FALSE(make()->upload_batch(prior, server, ch, bat).aborted);
  }

  /// Aborts a batch in `phase`, resumes it with the same batch, and checks
  /// the runs together account for the batch as one uninterrupted run does.
  /// A query-phase abort is a battery death mid-phase followed by a
  /// transport give-up on a dead link, which leaves the next image's
  /// extraction charged but its query undelivered.
  void expect_resume_matches_uninterrupted(const SchemeFactory& make,
                                           AbortIn phase) const {
    const std::vector<wl::ImageSpec>& batch = set_->images;
    BatchReport whole;
    {
      cloud::Server server;
      seed(server, make);
      net::Channel ch = lossy_channel(0.0);
      energy::Battery bat;
      whole = make()->upload_batch(batch, server, ch, bat);
      ASSERT_FALSE(whole.aborted);
    }
    const double query_j = whole.energy.extraction_j +
                           whole.energy.feature_tx_j + whole.energy.rx_j;
    // A querying scheme finds the seeded images.
    if (query_j > 0.0) {
      EXPECT_GT(whole.eliminated_cross_batch, 0);
    }

    cloud::Server server;
    seed(server, make);
    const std::size_t stored_before = server.stats().images_stored;
    const std::unique_ptr<UploadScheme> scheme = make();
    net::Channel ch = lossy_channel(0.0);
    std::vector<BatchReport> runs;
    if (phase == AbortIn::kQueryPhase) {
      energy::Battery small(0.5 * query_j);
      runs.push_back(scheme->upload_batch(batch, server, ch, small));
      net::Channel dead = lossy_channel(1.0);
      energy::Battery bat;
      runs.push_back(scheme->upload_batch(batch, server, dead, bat));
      ASSERT_TRUE(runs[0].aborted);
      ASSERT_TRUE(runs[1].aborted);
      EXPECT_GT(runs[1].gave_up, 0);
      EXPECT_EQ(runs[0].images_uploaded + runs[1].images_uploaded, 0);
    } else {
      energy::Battery small(query_j + 0.5 * whole.energy.image_tx_j);
      runs.push_back(scheme->upload_batch(batch, server, ch, small));
      ASSERT_TRUE(runs[0].aborted);
      EXPECT_GT(runs[0].images_uploaded, 0);
      EXPECT_LT(runs[0].images_uploaded, whole.images_uploaded);
    }
    energy::Battery recharged;
    runs.push_back(scheme->upload_batch(batch, server, ch, recharged));
    ASSERT_FALSE(runs.back().aborted);

    BatchReport total;
    for (std::size_t k = 0; k < runs.size(); ++k) {
      if (k > 0) {
        EXPECT_EQ(runs[k].images_offered, 0) << "run " << k;
      }
      total += runs[k];
    }
    const int n = static_cast<int>(batch.size());
    EXPECT_EQ(total.images_offered, n);
    EXPECT_EQ(total.images_uploaded + total.eliminated_cross_batch, n);
    EXPECT_EQ(server.stats().images_stored - stored_before,
              static_cast<std::size_t>(total.images_uploaded));
    EXPECT_EQ(total.eliminated_cross_batch, whole.eliminated_cross_batch);
    EXPECT_NEAR(total.energy.extraction_j, whole.energy.extraction_j,
                1e-9 * whole.energy.extraction_j);
  }

  SchemeFactory direct() const {
    return [this] {
      return std::make_unique<DirectUploadScheme>(*store_, resume_config());
    };
  }
  SchemeFactory smarteye() const {
    return [this] {
      return std::make_unique<SmartEyeScheme>(*store_, resume_config(),
                                              pca());
    };
  }
  SchemeFactory mrc() const {
    return [this] {
      return std::make_unique<MrcScheme>(*store_, resume_config());
    };
  }
  SchemeFactory photonet() const {
    return [this] {
      return std::make_unique<PhotoNetScheme>(*store_, resume_config());
    };
  }

  static wl::Imageset* set_;
  static wl::ImageStore* store_;
  static feat::PcaModel* pca_;
};

wl::Imageset* FaultToleranceTest::set_ = nullptr;
wl::ImageStore* FaultToleranceTest::store_ = nullptr;
feat::PcaModel* FaultToleranceTest::pca_ = nullptr;

TEST_F(FaultToleranceTest, EverySchemeCompletesUnderTwentyPercentLoss) {
  DirectUploadScheme direct(*store_, config());
  SmartEyeScheme smarteye(*store_, config(), pca());
  MrcScheme mrc(*store_, config());
  PhotoNetScheme photonet(*store_, config());
  BeesScheme bees(*store_, config());
  UploadScheme* schemes[] = {&direct, &smarteye, &mrc, &photonet, &bees};
  int total_retries = 0;
  for (UploadScheme* s : schemes) {
    cloud::Server server;
    net::Channel ch = lossy_channel(0.2);
    energy::Battery bat;
    const BatchReport r = s->upload_batch(set_->images, server, ch, bat);
    EXPECT_FALSE(r.aborted) << s->name();
    EXPECT_EQ(r.gave_up, 0) << s->name();
    EXPECT_EQ(r.images_uploaded + r.eliminated_cross_batch +
                  r.eliminated_in_batch,
              12)
        << s->name();
    total_retries += r.retries;
  }
  // Dozens of exchanges at 20% loss: some retries are certain.
  EXPECT_GT(total_retries, 0);
}

TEST_F(FaultToleranceTest, LossDoesNotChangeWhatGetsUploaded) {
  // Retries make loss invisible to the redundancy decisions: a lossy run
  // uploads the same images and bytes as a clean one — only the retry
  // bookkeeping differs.
  auto run = [&](double loss) {
    BeesScheme bees(*store_, config());
    cloud::Server server;
    net::Channel ch = lossy_channel(loss, 29);
    energy::Battery bat;
    return bees.upload_batch(set_->images, server, ch, bat);
  };
  const BatchReport clean = run(0.0);
  const BatchReport lossy = run(0.25);
  EXPECT_FALSE(lossy.aborted);
  EXPECT_EQ(lossy.images_uploaded, clean.images_uploaded);
  EXPECT_EQ(lossy.eliminated_cross_batch, clean.eliminated_cross_batch);
  EXPECT_EQ(lossy.eliminated_in_batch, clean.eliminated_in_batch);
  EXPECT_DOUBLE_EQ(lossy.feature_bytes, clean.feature_bytes);
  EXPECT_DOUBLE_EQ(lossy.image_bytes, clean.image_bytes);
  EXPECT_GT(lossy.retries, 0);
  EXPECT_GT(lossy.retransmitted_bytes, 0.0);
  EXPECT_DOUBLE_EQ(clean.retransmitted_bytes, 0.0);
}

TEST_F(FaultToleranceTest, ZeroLossRunsHaveNoRetryArtifacts) {
  BeesScheme bees(*store_, config());
  cloud::Server server;
  net::Channel ch = lossy_channel(0.0);
  energy::Battery bat;
  const BatchReport r = bees.upload_batch(set_->images, server, ch, bat);
  EXPECT_EQ(r.retries, 0);
  EXPECT_EQ(r.gave_up, 0);
  EXPECT_DOUBLE_EQ(r.retransmitted_bytes, 0.0);
  EXPECT_DOUBLE_EQ(r.retransmit_seconds, 0.0);
  EXPECT_DOUBLE_EQ(r.backoff_seconds, 0.0);
  EXPECT_DOUBLE_EQ(r.energy.retransmit_tx_j, 0.0);
}

TEST_F(FaultToleranceTest, SameSeedLossyRunsAreIdentical) {
  auto run = [&] {
    BeesScheme bees(*store_, config());
    cloud::Server server;
    net::Channel ch = lossy_channel(0.3, 41);
    energy::Battery bat;
    return bees.upload_batch(set_->images, server, ch, bat);
  };
  const BatchReport a = run();
  const BatchReport b = run();
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.gave_up, b.gave_up);
  EXPECT_EQ(a.images_uploaded, b.images_uploaded);
  EXPECT_DOUBLE_EQ(a.retransmitted_bytes, b.retransmitted_bytes);
  EXPECT_DOUBLE_EQ(a.retransmit_seconds, b.retransmit_seconds);
  EXPECT_DOUBLE_EQ(a.backoff_seconds, b.backoff_seconds);
  EXPECT_DOUBLE_EQ(a.feature_tx_seconds, b.feature_tx_seconds);
  EXPECT_DOUBLE_EQ(a.image_tx_seconds, b.image_tx_seconds);
  EXPECT_DOUBLE_EQ(a.energy.total(), b.energy.total());
  EXPECT_DOUBLE_EQ(a.busy_seconds(), b.busy_seconds());
}

TEST_F(FaultToleranceTest, RetransmittedAirtimeIsChargedToEnergy) {
  DirectUploadScheme direct(*store_, config());
  cloud::Server server;
  net::Channel ch = lossy_channel(0.5, 13);
  energy::Battery bat;
  const BatchReport r = direct.upload_batch(set_->images, server, ch, bat);
  ASSERT_FALSE(r.aborted);
  ASSERT_GT(r.retries, 0);
  EXPECT_GT(r.retransmitted_bytes, 0.0);
  // Wasted airtime is its own energy bucket, burned at TX power, part of
  // the active total and drained from the battery.
  EXPECT_NEAR(r.energy.retransmit_tx_j, r.retransmit_seconds * 1.2, 1e-9);
  EXPECT_GT(r.energy.active_total(),
            r.energy.image_tx_j + r.energy.feature_tx_j);
  EXPECT_NEAR(bat.capacity_j() - bat.remaining_j(), r.energy.total(), 1e-6);
  // Delivered-byte accounting stays clean: the server saw exactly the
  // payload bytes, not the retransmissions.
  EXPECT_DOUBLE_EQ(server.stats().image_bytes_received, r.image_bytes);
}

TEST_F(FaultToleranceTest, BatteryDeathResumesWithoutDuplicateUploads) {
  BeesScheme bees(*store_, config());
  cloud::Server server;
  net::Channel ch = lossy_channel(0.1, 53);

  // Find a budget that dies mid-batch: 60% of a full run's draw.
  double full_cost;
  {
    BeesScheme probe(*store_, config());
    cloud::Server s2;
    net::Channel c2 = lossy_channel(0.1, 53);
    energy::Battery b2;
    full_cost = probe.upload_batch(set_->images, s2, c2, b2).energy.total();
  }
  energy::Battery small(full_cost * 0.6);
  const BatchReport first = bees.upload_batch(set_->images, server, ch, small);
  ASSERT_TRUE(first.aborted);
  EXPECT_TRUE(bees.resumable());
  EXPECT_EQ(first.images_offered, 12);
  const auto stored_after_abort = server.stats().images_stored;
  EXPECT_EQ(stored_after_abort, static_cast<std::size_t>(first.images_uploaded));

  // Recharge and call again with the same batch: the scheme must pick up
  // where it stopped, not restart.
  energy::Battery recharged;
  const BatchReport second =
      bees.upload_batch(set_->images, server, ch, recharged);
  EXPECT_FALSE(second.aborted);
  EXPECT_FALSE(bees.resumable());
  EXPECT_EQ(second.images_offered, 0);  // offered already counted once

  BatchReport total = first;
  total += second;
  EXPECT_EQ(total.images_offered, 12);
  EXPECT_EQ(total.images_uploaded + total.eliminated_cross_batch +
                total.eliminated_in_batch,
            12);
  // Every stored image was stored exactly once.
  EXPECT_EQ(server.stats().images_stored,
            static_cast<std::size_t>(total.images_uploaded));
}

TEST_F(FaultToleranceTest, RetryBudgetExhaustionAbortsAndResumes) {
  SchemeConfig cfg = config();
  cfg.retry.max_attempts = 2;
  DirectUploadScheme direct(*store_, cfg);
  cloud::Server server;

  net::Channel dead = lossy_channel(1.0);
  energy::Battery bat;
  const BatchReport first = direct.upload_batch(set_->images, server, dead,
                                                bat);
  EXPECT_TRUE(first.aborted);
  EXPECT_GT(first.gave_up, 0);
  EXPECT_EQ(first.images_uploaded, 0);
  EXPECT_EQ(server.stats().images_stored, 0u);
  EXPECT_GT(first.retransmitted_bytes, 0.0);

  // The link comes back: the same batch resumes and completes.
  net::Channel healthy = lossy_channel(0.0);
  const BatchReport second =
      direct.upload_batch(set_->images, server, healthy, bat);
  EXPECT_FALSE(second.aborted);
  EXPECT_EQ(second.images_offered, 0);
  EXPECT_EQ(second.images_uploaded, 12);
  EXPECT_EQ(server.stats().images_stored, 12u);
}

TEST_F(FaultToleranceTest, DirectUploadResumesAfterUploadPhaseAbort) {
  expect_resume_matches_uninterrupted(direct(), AbortIn::kUploadPhase);
}

TEST_F(FaultToleranceTest, SmartEyeResumesAfterQueryPhaseAbort) {
  expect_resume_matches_uninterrupted(smarteye(), AbortIn::kQueryPhase);
}

TEST_F(FaultToleranceTest, SmartEyeResumesAfterUploadPhaseAbort) {
  expect_resume_matches_uninterrupted(smarteye(), AbortIn::kUploadPhase);
}

TEST_F(FaultToleranceTest, MrcResumesAfterQueryPhaseAbort) {
  expect_resume_matches_uninterrupted(mrc(), AbortIn::kQueryPhase);
}

TEST_F(FaultToleranceTest, MrcResumesAfterUploadPhaseAbort) {
  expect_resume_matches_uninterrupted(mrc(), AbortIn::kUploadPhase);
}

TEST_F(FaultToleranceTest, PhotoNetResumesAfterQueryPhaseAbort) {
  expect_resume_matches_uninterrupted(photonet(), AbortIn::kQueryPhase);
}

TEST_F(FaultToleranceTest, PhotoNetResumesAfterUploadPhaseAbort) {
  expect_resume_matches_uninterrupted(photonet(), AbortIn::kUploadPhase);
}

TEST_F(FaultToleranceTest, NewBatchAfterAbortDropsStaleProgress) {
  SchemeConfig cfg = config();
  cfg.retry.max_attempts = 2;
  DirectUploadScheme direct(*store_, cfg);
  cloud::Server server;
  net::Channel dead = lossy_channel(1.0);
  energy::Battery bat;
  const std::vector<wl::ImageSpec> half(set_->images.begin(),
                                        set_->images.begin() + 6);
  const BatchReport aborted = direct.upload_batch(half, server, dead, bat);
  ASSERT_TRUE(aborted.aborted);

  // A different batch arrives before the old one resumes: it must be
  // treated as fresh (offered counted, progress rebuilt).
  net::Channel healthy = lossy_channel(0.0);
  const BatchReport fresh =
      direct.upload_batch(set_->images, server, healthy, bat);
  EXPECT_FALSE(fresh.aborted);
  EXPECT_EQ(fresh.images_offered, 12);
  EXPECT_EQ(fresh.images_uploaded, 12);
}

TEST_F(FaultToleranceTest, SchemesSurviveOutagesWithTimeouts) {
  SchemeConfig cfg = config();
  cfg.retry.timeout_s = 30.0;
  BeesScheme bees(*store_, cfg);
  cloud::Server server;
  net::ChannelParams p = net::ChannelParams::fixed(256000.0);
  p.loss_probability = 0.1;
  p.outage_probability = 0.05;
  p.outage_duration_s = 4.0;
  p.seed = 99;
  net::Channel ch(p);
  energy::Battery bat;
  const BatchReport r = bees.upload_batch(set_->images, server, ch, bat);
  EXPECT_FALSE(r.aborted);
  EXPECT_EQ(r.gave_up, 0);
  EXPECT_EQ(r.images_uploaded + r.eliminated_cross_batch +
                r.eliminated_in_batch,
            12);
}

}  // namespace
}  // namespace bees::core
