// Mirror synchronization with Shotgun (Section 4.8): end-to-end on real bytes.
//
// Builds version 1 of a software image (a tree of files), evolves it to version 2,
// runs shotgun_sync at the source (rsync deltas -> one versioned bundle), ships the
// bundle's exact bytes through Bullet' on an emulated wide-area overlay, and applies
// the parsed bundle at a client — verifying byte-for-byte equality with version 2.
//
// Usage: mirror_sync [num_nodes] [image_mb]

#include <cstdio>
#include <cstdlib>

#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/harness/scenarios.h"
#include "src/shotgun/shotgun.h"

namespace {

bullet::Bytes RandomBytes(size_t n, bullet::Rng& rng) {
  bullet::Bytes out(n);
  for (auto& b : out) {
    b = static_cast<uint8_t>(rng.Next());
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const int num_nodes = argc > 1 ? std::atoi(argv[1]) : 20;
  const double image_mb = argc > 2 ? std::atof(argv[2]) : 8.0;
  bullet::Rng rng(2026);

  // --- Version 1: a tree of binaries, libraries and data files ---
  bullet::FileTree v1;
  const size_t file_bytes = static_cast<size_t>(image_mb * 1024 * 1024 / 8);
  for (int f = 0; f < 8; ++f) {
    v1["image/file" + std::to_string(f)] = RandomBytes(file_bytes, rng);
  }

  // --- Version 2: edits, one rewrite, one addition, one removal ---
  bullet::FileTree v2 = v1;
  for (int f = 0; f < 6; ++f) {
    auto& bytes = v2["image/file" + std::to_string(f)];
    // A handful of localized edits per file (patch-sized changes, not a rewrite).
    for (int e = 0; e < 12; ++e) {
      const size_t pos =
          static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(bytes.size()) - 512));
      for (size_t i = 0; i < 400; ++i) {
        bytes[pos + i] ^= static_cast<uint8_t>(rng.Next());
      }
    }
  }
  v2["image/file6"] = RandomBytes(file_bytes, rng);  // full rewrite
  v2["image/new_tool"] = RandomBytes(file_bytes / 4, rng);
  v2.erase("image/file7");

  // --- shotgun_sync at the source ---
  const bullet::SyncBundle bundle = bullet::MakeBundle(v1, v2, 4 * 1024, 1, 2);
  const bullet::Bytes wire = bullet::SerializeBundle(bundle);
  std::printf("image: %.1f MB in %zu files; bundle: %.2f MB (%.1f%% of image), replay %.2f MB\n",
              image_mb, v2.size(), wire.size() / 1048576.0,
              100.0 * static_cast<double>(wire.size()) / (image_mb * 1048576.0),
              static_cast<double>(bundle.ReplayBytes()) / 1048576.0);

  // --- Disseminate the bundle bytes over Bullet' ---
  bullet::ScenarioConfig cfg;
  cfg.topo = bullet::ScenarioConfig::Topo::kWideArea;
  cfg.num_nodes = num_nodes;
  cfg.file_mb = static_cast<double>(wire.size()) / 1048576.0;
  cfg.seed = 7;
  const bullet::SessionResult r = bullet::RunScenario("bullet-prime", cfg).sessions.front();
  std::printf("disseminated to %d/%d nodes: median %.1f s, slowest %.1f s\n", r.completed,
              r.receivers, bullet::Percentile(r.completion_sec, 0.5),
              bullet::Percentile(r.completion_sec, 1.0));

  // --- shotgund at a client: parse + apply + verify ---
  const auto parsed = bullet::ParseBundle(wire);
  if (!parsed.has_value()) {
    std::printf("FAIL: bundle did not parse\n");
    return 1;
  }
  bullet::FileTree client = v1;  // the client held version 1
  if (!bullet::ApplyBundle(client, *parsed)) {
    std::printf("FAIL: bundle did not apply\n");
    return 1;
  }
  if (client != v2) {
    std::printf("FAIL: applied tree differs from version 2\n");
    return 1;
  }
  std::printf("verified: every client byte-identical to version 2\n");
  return 0;
}
