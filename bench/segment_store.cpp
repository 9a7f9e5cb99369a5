// Segment-store bench: what the chunk-manifest upload plane saves on the
// wire, and what compaction holds on disk.
//
// Phase 1 — re-upload under loss.  A near-duplicate batch (a base set plus
// exact duplicates of half of it) is uploaded by Direct Upload twice per
// loss level: once over the legacy whole-image protocol, once over the
// chunk plane against a server-side segment store.  Runs that abort on an
// exhausted retry budget are resumed until the batch completes, so the
// resent-bytes column captures both duplicate content and abort/resume
// waste.  Bar: at loss 0.2 the chunk plane must cut resent bytes by at
// least 30%.
//
// Phase 2 — compaction under churn.  Rounds of payloads (half fresh, half
// repeated from the previous round) are ingested into a disk-backed store
// with a hard disk ceiling; each round pins its chunks, unpins the prior
// round's, and runs the compaction trigger.  Bar: after every round's
// compaction the segment files stay under the ceiling.
//
// When BEES_BENCH_JSON names a directory the rows are written to
// <dir>/BENCH_segstore.json.
//
// Usage: segment_store [--smoke]   (--smoke shrinks the batch and the
// churn phase so the perfsmoke ctest label runs the bench end-to-end; the
// bars are deterministic and enforced in both modes)
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "cloud/server.hpp"
#include "store/segment_store.hpp"
#include "util/rng.hpp"

namespace {

using namespace bees;

struct SweepRow {
  double loss = 0.0;
  core::BatchReport legacy;
  core::BatchReport chunked;
  double legacy_resent = 0.0;
  double chunked_resent = 0.0;
  double reduction = 0.0;  // 1 - chunked/legacy
};

struct ChurnRow {
  int round = 0;
  std::uint64_t disk_after_compact = 0;
  std::uint64_t live_bytes = 0;
  std::uint64_t compactions = 0;
};

/// Image-plane bytes that crossed the wire, delivered or wasted.
double wire_bytes(const core::BatchReport& r) {
  return r.image_bytes + r.retransmitted_bytes;
}

/// Uploads the batch to completion, resuming after every abort.
core::BatchReport run_to_completion(core::UploadScheme& scheme,
                                    const std::vector<wl::ImageSpec>& batch,
                                    cloud::Server& server, net::Channel& ch,
                                    energy::Battery& bat) {
  core::BatchReport total = scheme.upload_batch(batch, server, ch, bat);
  for (int i = 0; total.aborted && i < 64; ++i) {
    core::BatchReport resumed = scheme.upload_batch(batch, server, ch, bat);
    total.aborted = false;
    total += resumed;
  }
  return total;
}

int main_impl(bool smoke) {
  util::print_banner(std::cout,
                     "Segment store: wire dedup and compaction ceiling");

  // ---- Phase 1: re-upload-under-loss sweep --------------------------------
  const int base_images = smoke ? 8 : bench::sized(16, 32);
  wl::Imageset set = wl::make_disaster_like(base_images, 4, 200, 150, 77);
  wl::ImageStore store;
  const double byte_scale = bench::calibrate_byte_scale(store, set);
  // Near-duplicate batch: every image once, the first half a second time.
  std::vector<wl::ImageSpec> batch = set.images;
  batch.insert(batch.end(), set.images.begin(),
               set.images.begin() + base_images / 2);

  std::vector<double> losses{0.0, 0.05, 0.1, 0.2};
  if (smoke) losses = {0.0, 0.2};

  auto run = [&](bool chunking, double loss, std::uint64_t seed) {
    core::SchemeConfig cfg = bench::make_config(byte_scale);
    cfg.retry.max_attempts = 3;
    cfg.chunking.enabled = chunking;
    core::DirectUploadScheme direct(store, cfg);
    cloud::Server server;
    store::SegmentStore chunk_store({});
    if (chunking) server.attach_chunk_store(&chunk_store);
    net::ChannelParams p = net::ChannelParams::fixed(256000.0);
    p.loss_probability = loss;
    p.seed = seed;
    net::Channel ch(p);
    energy::Battery bat;
    return run_to_completion(direct, batch, server, ch, bat);
  };

  // The deduplicated payload in modelled bytes: a clean chunked run ships
  // exactly the unique content, once.
  const double unique_modeled = run(true, 0.0, 901).image_bytes;

  std::vector<SweepRow> rows;
  for (std::size_t i = 0; i < losses.size(); ++i) {
    SweepRow row;
    row.loss = losses[i];
    row.legacy = run(false, row.loss, 910 + i);
    row.chunked = run(true, row.loss, 910 + i);
    row.legacy_resent = wire_bytes(row.legacy) - unique_modeled;
    row.chunked_resent = wire_bytes(row.chunked) - unique_modeled;
    if (row.legacy_resent > 0.0) {
      row.reduction = 1.0 - row.chunked_resent / row.legacy_resent;
    }
    rows.push_back(row);
  }

  std::cout << "batch: " << batch.size() << " images (" << base_images
            << " unique), unique payload " << bench::mb(unique_modeled)
            << " modelled\n\n";
  util::Table sweep({"loss", "legacy wire", "chunked wire", "legacy resent",
                     "chunked resent", "resent reduction"});
  for (const SweepRow& row : rows) {
    sweep.add_row({util::Table::num(row.loss, 2),
                   bench::mb(wire_bytes(row.legacy)),
                   bench::mb(wire_bytes(row.chunked)),
                   bench::mb(row.legacy_resent),
                   bench::mb(row.chunked_resent),
                   util::Table::num(100.0 * row.reduction, 1) + "%"});
  }
  sweep.print(std::cout);

  // ---- Phase 2: compaction keeps disk under the ceiling -------------------
  const int rounds = smoke ? 4 : 8;
  const int payloads_per_round = smoke ? 12 : 24;
  const std::size_t payload_bytes = 8 * 1024;
  // Tight enough that uncompacted churn (live + each round's dead bytes)
  // would blow through it: holding the bar requires compaction to fire.
  const std::uint64_t ceiling = smoke ? 192 * 1024 : 352 * 1024;

  const std::string churn_dir =
      (std::filesystem::temp_directory_path() / "bees_bench_segstore")
          .string();
  std::filesystem::remove_all(churn_dir);
  store::SegmentStoreOptions churn_options;
  churn_options.dir = churn_dir;
  churn_options.chunk_size = 4096;
  churn_options.segment_target_bytes = 32 * 1024;
  churn_options.disk_ceiling_bytes = ceiling;
  store::SegmentStore churn(churn_options);

  auto payload_of = [&](int round, int index) {
    // Half of each round's payloads repeat the previous round's: steady
    // churn with real dedup, like re-checkpointed snapshots.
    const int fresh = index < payloads_per_round / 2 ? round : round - 1;
    const int slot = index % (payloads_per_round / 2);
    util::Rng rng(5000 + 97 * static_cast<std::uint64_t>(std::max(0, fresh)) +
                  static_cast<std::uint64_t>(slot));
    std::vector<std::uint8_t> bytes(payload_bytes);
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next_u64());
    return bytes;
  };

  std::vector<ChurnRow> churn_rows;
  std::uint64_t peak_disk = 0;
  std::vector<store::ChunkKey> previous_pins;
  for (int round = 0; round < rounds; ++round) {
    std::vector<store::ChunkKey> pins;
    for (int i = 0; i < payloads_per_round; ++i) {
      const store::Manifest m = churn.put_payload(payload_of(round, i));
      pins.insert(pins.end(), m.chunks.begin(), m.chunks.end());
    }
    churn.pin(pins);
    churn.unpin(previous_pins);
    previous_pins = std::move(pins);
    peak_disk = std::max(peak_disk, churn.disk_bytes());
    churn.maybe_compact();
    const store::SegmentStore::Stats stats = churn.stats();
    ChurnRow row;
    row.round = round;
    row.disk_after_compact = churn.disk_bytes();
    row.live_bytes = stats.live_bytes;
    row.compactions = stats.compactions;
    churn_rows.push_back(row);
  }
  const store::SegmentStore::Stats final_stats = churn.stats();
  std::filesystem::remove_all(churn_dir);

  std::cout << "\nchurn: " << rounds << " rounds x " << payloads_per_round
            << " payloads of " << payload_bytes / 1024 << " KB, ceiling "
            << bench::kb(static_cast<double>(ceiling)) << "\n\n";
  util::Table churn_table(
      {"round", "disk after compact", "live bytes", "compactions"});
  for (const ChurnRow& row : churn_rows) {
    churn_table.add_row(
        {std::to_string(row.round),
         bench::kb(static_cast<double>(row.disk_after_compact)),
         bench::kb(static_cast<double>(row.live_bytes)),
         std::to_string(row.compactions)});
  }
  churn_table.print(std::cout);
  std::cout << "peak disk before compaction: "
            << bench::kb(static_cast<double>(peak_disk))
            << ", cross-round dedup hits: " << final_stats.dedup_hits << "\n";

  // ---- JSON ---------------------------------------------------------------
  bench::BenchJson json("segstore");
  json.set("unique_modeled_bytes", unique_modeled);
  for (const SweepRow& row : rows) {
    json.add("loss" + util::Table::num(row.loss, 2),
             {{"loss", row.loss},
              {"legacy_wire_bytes", wire_bytes(row.legacy)},
              {"chunked_wire_bytes", wire_bytes(row.chunked)},
              {"legacy_resent_bytes", row.legacy_resent},
              {"chunked_resent_bytes", row.chunked_resent},
              {"resent_reduction", row.reduction},
              {"chunks_sent", row.chunked.chunks_sent},
              {"chunks_deduped", row.chunked.chunks_deduped},
              {"chunks_resent", row.chunked.chunks_resent}});
  }
  std::uint64_t max_after = 0;
  for (const ChurnRow& row : churn_rows) {
    max_after = std::max(max_after, row.disk_after_compact);
  }
  json.set("compaction",
           {{"ceiling_bytes", ceiling},
            {"peak_disk_bytes", peak_disk},
            {"max_disk_after_compact_bytes", max_after},
            {"rounds", rounds},
            {"compactions", final_stats.compactions},
            {"dedup_hits", final_stats.dedup_hits}});

  // ---- Bars ---------------------------------------------------------------
  int failures = 0;
  const SweepRow& hardest = rows.back();  // loss 0.2 in both modes
  std::cout << "\nResent-bytes bar: at loss "
            << util::Table::num(hardest.loss, 2) << " the chunk plane cut "
            << util::Table::num(100.0 * hardest.reduction, 1)
            << "% (required >= 30%)\n";
  if (hardest.reduction < 0.30) {
    std::cerr << "FAIL: chunk plane saved less than 30% of resent bytes\n";
    ++failures;
  }
  bool under_ceiling = true;
  for (const ChurnRow& row : churn_rows) {
    if (row.disk_after_compact > ceiling) under_ceiling = false;
  }
  std::cout << "Ceiling bar: disk after every compaction "
            << (under_ceiling ? "stayed under " : "EXCEEDED ")
            << bench::kb(static_cast<double>(ceiling)) << "\n";
  if (!under_ceiling) {
    std::cerr << "FAIL: compaction did not hold the disk ceiling\n";
    ++failures;
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::string(argv[1]) == "--smoke";
  return main_impl(smoke);
}
