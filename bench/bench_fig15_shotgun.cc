// Fig. 15: Shotgun vs staggered parallel rsync — aggregate completion time for an
// update with ~24 MB of deltas pushed to 40 wide-area nodes.
//
// The pipeline is real end to end: two synthetic software images are diffed with the
// rsync library (rolling + strong checksums) into a bundle, whose serialized size
// drives both sides and whose bytes, parsed and applied to the old image, must
// rebuild the new one. Shotgun disseminates the bundle over Bullet' on the
// wide-area topology, and the baseline runs N rsync sessions against one server
// with K parallel slots, a shared disk, and a shared uplink.
//
// Expected shape (paper): Shotgun beats parallel rsync by around two orders of
// magnitude; client-side replay roughly doubles Shotgun's download-only time (the
// disk, not the network, is the constraint).

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/core/bullet_prime.h"
#include "src/harness/scenario_registry.h"
#include "src/shotgun/rsync_baseline.h"
#include "src/shotgun/shotgun.h"

namespace bullet {
namespace {

constexpr int kNodes = 41;  // server/source + 40 clients
constexpr uint64_t kSeed = 1501;
constexpr double kDiskBps = 15e6;  // PlanetLab-era client disk throughput

Bytes RandomBytes(size_t n, Rng& rng) {
  Bytes out(n);
  for (auto& b : out) {
    b = static_cast<uint8_t>(rng.Next());
  }
  return out;
}

// Builds the old/new software images. Sized so the bundle is about half of a 48 MiB
// image at paper scale (25.6 MiB serialized; the paper's ~24 MB of deltas), and
// REPRO_SCALE shrinks both proportionally.
struct Update {
  SyncBundle bundle;
  int64_t bundle_bytes = 0;  // serialized: what the source multicasts
  int64_t image_bytes = 0;
  int64_t signature_bytes = 0;
};

const Update& GetUpdate() {
  static const Update update = [] {
    Update u;
    Rng rng(kSeed);
    const double scale = GetReproScale().file_scale;
    const size_t num_files = 24;
    const size_t file_bytes = static_cast<size_t>(2.0 * 1024 * 1024 * scale);
    constexpr size_t kBlock = 4 * 1024;
    constexpr size_t kEditSpan = 64 * 1024;
    constexpr size_t kEditRun = 256;
    FileTree old_tree;
    FileTree new_tree;
    for (size_t f = 0; f < num_files; ++f) {
      const std::string path = "image/part" + std::to_string(f);
      old_tree[path] = RandomBytes(file_bytes, rng);
      Bytes next = old_tree[path];
      // Half the files change almost entirely; the rest get one contiguous edit of
      // kEditRun bytes per kEditSpan, so most of their blocks still match. Net delta
      // ~ half the image: the paper's "24 MB of deltas" against a ~48 MB image.
      if (f % 2 == 0) {
        next = RandomBytes(file_bytes, rng);
      } else {
        for (size_t span = 0; span + kEditRun <= file_bytes; span += kEditSpan) {
          const size_t room = std::min(kEditSpan, file_bytes - span) - kEditRun;
          const size_t at =
              span + static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(room)));
          for (size_t i = at; i < at + kEditRun; ++i) {
            next[i] ^= 1;
          }
        }
      }
      new_tree[path] = std::move(next);
    }
    u.bundle = MakeBundle(old_tree, new_tree, kBlock, 1, 2);
    for (const auto& [path, bytes] : old_tree) {
      u.image_bytes += static_cast<int64_t>(bytes.size());
      u.signature_bytes += ComputeSignature(bytes, kBlock).WireBytes();
    }
    // What every shotgund does with the bytes it receives: parse them and replay
    // them on its old image (patched in place), which must then be the new image.
    const Bytes wire = SerializeBundle(u.bundle);
    u.bundle_bytes = static_cast<int64_t>(wire.size());
    const std::optional<SyncBundle> received = ParseBundle(wire);
    BULLET_CHECK(received.has_value());
    const bool applied = ApplyBundle(old_tree, *received);
    BULLET_CHECK(applied && old_tree == new_tree);
    return u;
  }();
  return update;
}

BULLET_SCENARIO(fig15_shotgun, "Fig. 15 — Shotgun vs staggered parallel rsync") {
  const Update& u = GetUpdate();
  const uint64_t seed = opts.seed.value_or(kSeed);
  const int nodes = opts.nodes.value_or(kNodes);
  ScenarioReport report(kScenarioName);

  // Shotgun: disseminate the bundle over Bullet' on the wide-area topology.
  {
    ScenarioConfig cfg;
    cfg.topo = ScenarioConfig::Topo::kWideArea;
    cfg.num_nodes = nodes;
    cfg.file_mb = static_cast<double>(u.bundle_bytes) / (1024.0 * 1024.0);
    cfg.seed = seed;
    const SessionResult r = RunScenario("bullet-prime", cfg).sessions.front();

    const double apply_sec = static_cast<double>(u.bundle.ReplayBytes()) / kDiskBps;
    std::vector<double> with_update;
    for (const double t : r.completion_sec) {
      with_update.push_back(t + apply_sec);
    }
    report.AddScalar("bundle_mb", static_cast<double>(u.bundle_bytes) / (1024.0 * 1024.0));
    report.AddScalar("apply_s", apply_sec);
    report.AddSeries("Shotgun (download only)", r.completion_sec);
    report.AddSeries("Shotgun (download + update)", with_update);
  }

  // Baseline: N rsync clients against one server with K parallel slots.
  for (const int parallel : {2, 4, 8, 16}) {
    Rng topo_rng(seed ^ 0x74d3c2e1b5a69788ULL);  // same topology as the Shotgun run
    MeshTopology topo = MeshTopology::WideArea(nodes, topo_rng);

    NetworkConfig net_config;
    Network net(std::move(topo), net_config, seed);
    RunMetrics metrics(nodes);

    RsyncFleetConfig fleet;
    fleet.max_parallel = parallel;
    fleet.sig_bytes = u.signature_bytes;
    fleet.delta_bytes = u.bundle_bytes;
    fleet.server_scan_bytes = u.image_bytes * 2;  // server reads old + new images
    fleet.replay_bytes = u.bundle.ReplayBytes();
    fleet.client_disk_Bps = kDiskBps;

    std::vector<std::unique_ptr<Protocol>> protos;
    for (NodeId n = 0; n < nodes; ++n) {
      Protocol::Context ctx;
      ctx.self = n;
      ctx.net = &net;
      ctx.metrics = &metrics;
      ctx.seed = seed + static_cast<uint64_t>(n);
      if (n == 0) {
        protos.push_back(std::make_unique<RsyncServer>(ctx, fleet));
      } else {
        protos.push_back(std::make_unique<RsyncClient>(ctx, 0, fleet));
      }
      net.SetHandler(n, protos.back().get());
    }
    for (auto& p : protos) {
      p->Start();
    }
    net.Run(SecToSim(4 * 3600.0));

    const auto times = metrics.CompletionSeconds(0, 4 * 3600.0);
    SeriesReport& s = report.AddSeries(std::to_string(parallel) + " parallel rsync", times);
    s.metrics.emplace_back("done", static_cast<double>(metrics.completed()));
  }
  return report;
}

}  // namespace
}  // namespace bullet
