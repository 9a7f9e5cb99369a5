// Relay bench: what CARE dedup saves on the backhaul, and whether a
// promoted replica is indistinguishable from the primary it replaced.
//
// Phase 1 — co-located near-duplicate backhaul.  A cell of devices
// photographs the same set of scenes: every device uploads the shared
// captures (byte-identical feature payloads, offset only by each device's
// own geo header — a near-duplicate in chunk terms) plus a few captures
// only it saw.  All uploads cross one relay's backhaul.  Without CARE the
// backhaul carries every copy; with the chunk ledger the first copy ships
// in full and every repeat costs a manifest plus the handful of chunks the
// device's header perturbed.  Bar: the relay must cut backhaul bytes by at
// least 30% versus raw ingress.
//
// Phase 2 — recovered-replica equivalence.  A durable replicated cluster
// (1 follower per shard, WAL frames shipped inline, snapshots in a shared
// segment store) and a plain in-memory cluster ingest the same stores; every
// primary is then killed.  Bar: each promoted follower answers every probe
// query byte-identically to the never-damaged reference, and every kill
// promoted at full apply parity (zero ship lag left behind).
//
// When BEES_BENCH_JSON names a directory the rows are written to
// <dir>/BENCH_relay.json.
//
// Usage: relay_dedup [--smoke]   (--smoke shrinks the cell and the store
// count so the perfsmoke ctest label runs the bench end-to-end; both bars
// are deterministic and enforced in both modes)
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "features/orb.hpp"
#include "imaging/synth.hpp"
#include "index/serialize.hpp"
#include "net/protocol.hpp"
#include "relay/relay.hpp"
#include "replica/replication.hpp"
#include "serve/cluster.hpp"
#include "util/rng.hpp"

namespace {

using namespace bees;

feat::BinaryFeatures scene_features(std::uint64_t seed) {
  util::Rng rng(seed);
  img::ViewPerturbation pert;
  return feat::extract_orb(
      img::render_view(img::SceneSpec{seed, 18, 4}, 200, 150, pert, rng));
}

idx::GeoTag device_geo(int device) {
  return {2.29 + 0.005 * device, 48.85 + 0.003 * device, true};
}

int main_impl(bool smoke) {
  util::print_banner(std::cout,
                     "Relay tier: CARE backhaul dedup and failover parity");

  // ---- Phase 1: co-located near-duplicate backhaul ------------------------
  const int devices = smoke ? 3 : bench::sized(6, 10);
  const int shared_scenes = smoke ? 4 : bench::sized(8, 12);
  const int unique_scenes = 2;  // per device: captures nobody else saw
  const std::uint32_t chunk_size = 512;

  // The shared captures, rendered once: co-located devices photographing
  // the same scene extract the same features, so their upload payloads
  // differ only in the per-device geo header.
  std::vector<feat::BinaryFeatures> shared;
  shared.reserve(static_cast<std::size_t>(shared_scenes));
  for (int s = 0; s < shared_scenes; ++s) {
    shared.push_back(scene_features(400 + static_cast<std::uint64_t>(s)));
  }

  relay::Relay cell(0, chunk_size);
  std::uint64_t uploads = 0;
  for (int d = 0; d < devices; ++d) {
    for (int s = 0; s < shared_scenes; ++s) {
      cell.forward(net::encode_image_upload(
          shared[static_cast<std::size_t>(s)], 700'000.0 + s, device_geo(d),
          12'000.0));
      ++uploads;
    }
    for (int u = 0; u < unique_scenes; ++u) {
      const auto features = scene_features(
          900 + static_cast<std::uint64_t>(d * unique_scenes + u));
      cell.forward(net::encode_image_upload(features, 710'000.0 + u,
                                            device_geo(d), 12'000.0));
      ++uploads;
    }
  }

  const relay::RelayStats stats = cell.stats();
  const double reduction =
      stats.ingress_bytes == 0
          ? 0.0
          : 1.0 - static_cast<double>(stats.backhaul_bytes) /
                      static_cast<double>(stats.ingress_bytes);

  std::cout << "cell: " << devices << " devices x " << shared_scenes
            << " shared + " << unique_scenes << " unique captures, chunk "
            << chunk_size << " B\n\n";
  util::Table care({"uploads", "ingress", "backhaul", "saved", "chunks hit",
                    "backhaul reduction"});
  care.add_row({std::to_string(uploads),
                bench::kb(static_cast<double>(stats.ingress_bytes)),
                bench::kb(static_cast<double>(stats.backhaul_bytes)),
                bench::kb(static_cast<double>(stats.dedup_bytes_saved)),
                std::to_string(stats.dedup_chunks_hit),
                util::Table::num(100.0 * reduction, 1) + "%"});
  care.print(std::cout);

  // ---- Phase 2: recovered-replica equivalence -----------------------------
  const int stores = smoke ? 8 : bench::sized(20, 32);
  const int probes = stores;
  const std::string dir =
      (std::filesystem::temp_directory_path() / "bees_bench_relay").string();
  std::filesystem::remove_all(dir);

  serve::ClusterOptions durable;
  durable.shards = 2;
  durable.data_dir = dir;
  durable.segment_store.dir = dir + "/segstore";
  durable.segment_store.chunk_size = 1024;
  durable.segment_store.compact_dead_ratio = 0.0;
  durable.checkpoint_every = 4;
  durable.backend_factory = replica::make_replicated_factory(1);
  serve::Cluster replicated(durable);

  serve::ClusterOptions plain;
  plain.shards = 2;
  serve::Cluster reference(plain);

  for (int i = 0; i < stores; ++i) {
    const auto features =
        scene_features(1200 + static_cast<std::uint64_t>(i));
    const cloud::StoreInfo info{700'000.0 + i, device_geo(i % 5),
                                12'000.0 + i};
    replicated.store_binary(features, info);
    reference.store_binary(features, info);
  }
  replicated.checkpoint();

  int kills = 0;
  for (int s = 0; s < durable.shards; ++s) {
    if (replicated.kill_primary(s)) ++kills;
  }

  int mismatches = 0;
  for (int i = 0; i < probes; ++i) {
    const auto request = net::encode_binary_query(
        scene_features(1200 + static_cast<std::uint64_t>(i)),
        idx::kDefaultTopK, 9'000.0);
    if (replicated.handle(request) != reference.handle(request)) {
      ++mismatches;
    }
  }
  const serve::BackendResilience res = replicated.resilience();
  std::filesystem::remove_all(dir);

  std::cout << "\nfailover: " << stores << " stores, " << kills
            << " primaries killed, " << probes << " probe queries\n\n";
  util::Table parity({"ship records", "ship bytes", "ship lag max",
                      "failovers", "probe mismatches"});
  parity.add_row({std::to_string(res.ship_records),
                  bench::kb(static_cast<double>(res.ship_bytes)),
                  std::to_string(res.ship_lag_max),
                  std::to_string(res.failovers),
                  std::to_string(mismatches)});
  parity.print(std::cout);

  // ---- JSON ---------------------------------------------------------------
  bench::BenchJson json("relay");
  json.add("care_dedup",
           {{"devices", devices},
            {"shared_scenes", shared_scenes},
            {"unique_scenes", unique_scenes},
            {"uploads", uploads},
            {"ingress_bytes", stats.ingress_bytes},
            {"backhaul_bytes", stats.backhaul_bytes},
            {"dedup_bytes_saved", stats.dedup_bytes_saved},
            {"dedup_chunks_hit", stats.dedup_chunks_hit},
            {"backhaul_reduction", reduction}});
  json.add("failover_parity",
           {{"stores", stores},
            {"kills", kills},
            {"probes", probes},
            {"mismatches", mismatches},
            {"ship_records", res.ship_records},
            {"ship_bytes", res.ship_bytes},
            {"ship_lag_max", res.ship_lag_max},
            {"failovers", res.failovers}});

  // ---- Bars ---------------------------------------------------------------
  int failures = 0;
  std::cout << "\nBackhaul bar: CARE cut "
            << util::Table::num(100.0 * reduction, 1)
            << "% of backhaul bytes (required >= 30%)\n";
  if (reduction < 0.30) {
    std::cerr << "FAIL: relay dedup saved less than 30% of backhaul bytes\n";
    ++failures;
  }
  std::cout << "Parity bar: " << mismatches << " of " << probes
            << " probes diverged after failover (required 0)\n";
  if (mismatches != 0 || kills != durable.shards) {
    std::cerr << "FAIL: promoted replica does not match the reference\n";
    ++failures;
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::string(argv[1]) == "--smoke";
  return main_impl(smoke);
}
