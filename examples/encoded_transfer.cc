// Source-encoded dissemination (Section 2.2 / 4.6): encodes a real file with the
// rateless LT codec, runs Bullet' in encoded mode (receivers complete at (1+eps)n
// distinct blocks), then decodes the same encoded-id stream locally to demonstrate
// the full path and the decode-progress cliff the paper describes ("even with n
// received blocks, only ~30% of the file content can be reconstructed").
//
// Usage: encoded_transfer [num_nodes] [file_mb]

#include <cstdio>
#include <cstdlib>

#include "src/codec/lt_codec.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/harness/scenarios.h"

int main(int argc, char** argv) {
  const int num_nodes = argc > 1 ? std::atoi(argv[1]) : 20;
  const double file_mb = argc > 2 ? std::atof(argv[2]) : 2.0;

  // --- Encode a real file ---
  bullet::Rng rng(99);
  std::vector<uint8_t> file(static_cast<size_t>(file_mb * 1024 * 1024));
  for (auto& b : file) {
    b = static_cast<uint8_t>(rng.Next());
  }
  constexpr size_t kBlock = 16 * 1024;
  bullet::LtEncoder encoder(file, kBlock);
  std::printf("file: %.1f MB -> %u source blocks of %zu KB\n", file_mb, encoder.num_blocks(),
              kBlock / 1024);

  // --- Disseminate in encoded mode ---
  bullet::ScenarioConfig cfg;
  cfg.num_nodes = num_nodes;
  cfg.file_mb = file_mb;
  cfg.seed = 31;
  bullet::WorkloadSpec workload;
  bullet::SessionSpec session;
  session.seed = cfg.seed;
  session.file.encoded = true;
  workload.sessions.push_back(session);
  const bullet::WorkloadResult run = bullet::BuildScenarioExperiment(cfg, workload)->Run();
  const bullet::SessionResult& r = run.sessions.front();
  std::printf("encoded dissemination: %d/%d nodes complete, median %.1f s (4%% overhead rule)\n",
              r.completed, r.receivers, bullet::Percentile(r.completion_sec, 0.5));

  // --- Decode the same stream locally ---
  bullet::LtDecoder decoder(encoder.num_blocks(), kBlock);
  uint32_t sent = 0;
  uint32_t at_n = 0;
  while (!decoder.complete() && sent < encoder.num_blocks() * 3) {
    decoder.AddEncoded(sent, encoder.Encode(sent));
    ++sent;
    if (sent == encoder.num_blocks()) {
      at_n = decoder.recovered_count();
    }
  }
  if (!decoder.complete()) {
    std::printf("FAIL: decode did not complete\n");
    return 1;
  }
  const auto recovered = decoder.Reconstruct(static_cast<int64_t>(file.size()));
  std::printf("decode: %u encoded blocks used (%.1f%% reception overhead); at n blocks only "
              "%.0f%% of the file was reconstructable\n",
              sent, 100.0 * (static_cast<double>(sent) / encoder.num_blocks() - 1.0),
              100.0 * at_n / encoder.num_blocks());
  std::printf("%s\n", recovered == file ? "verified: decoded file is byte-identical"
                                        : "FAIL: decoded file differs");
  return recovered == file ? 0 : 1;
}
