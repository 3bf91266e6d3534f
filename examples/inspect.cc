// Diagnostic example: runs Bullet' and samples one receiver's adaptive state every
// 5 seconds — sender count, MAX_SENDERS, per-sender outstanding windows, and
// aggregate inbound rate — the live view of Sections 3.3.1 and 3.3.3 at work.
//
// Usage: inspect [num_nodes] [file_mb] [probe_node]

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "src/core/bullet_prime.h"
#include "src/harness/scenarios.h"

int main(int argc, char** argv) {
  const int num_nodes = argc > 1 ? std::atoi(argv[1]) : 50;
  const double file_mb = argc > 2 ? std::atof(argv[2]) : 5.0;
  const bullet::NodeId probe = argc > 3 ? std::atoi(argv[3]) : num_nodes / 2;
  if (num_nodes < 2 || probe < 0 || probe >= num_nodes) {
    std::fprintf(stderr, "usage: inspect [num_nodes >= 2] [file_mb] [probe_node < num_nodes]\n");
    return 2;
  }

  bullet::ScenarioConfig cfg;
  cfg.num_nodes = num_nodes;
  cfg.file_mb = file_mb;
  cfg.seed = 21;
  cfg.deadline = bullet::SecToSim(3600.0);

  bullet::WorkloadSpec workload;
  bullet::SessionSpec session;
  session.protocol = "bullet-prime";
  session.seed = cfg.seed;
  workload.sessions.push_back(session);
  const std::unique_ptr<bullet::WorkloadExperiment> exp =
      bullet::BuildScenarioExperiment(cfg, workload);
  const uint32_t num_blocks = exp->session_spec(0).file.num_blocks;

  // Periodic probe of the protocol state on the network's tick hook (every
  // member joins at t=0, so the probe's protocol exists from the first sample
  // on).
  bullet::SimTime next_sample = bullet::SecToSim(5.0);
  int64_t prev_total = 0;
  exp->net().SetTickHook([&](const bullet::Network& net) {
    if (net.now() < next_sample) {
      return;
    }
    next_sample += bullet::SecToSim(5.0);
    const auto* probe_proto =
        static_cast<const bullet::BulletPrime*>(exp->session_protocol(0, probe));
    int64_t total_rx = 0;
    for (int n = 0; n < num_nodes; ++n) {
      total_rx += net.node_bytes_received(n);
    }
    const double agg_mbps = static_cast<double>(total_rx - prev_total) * 8.0 / 5.0 / 1e6;
    prev_total = total_rx;
    std::printf("t=%6.1fs probe: senders=%d max_senders=%d blocks=%zu/%u agg_rx=%.1f Mbps\n",
                bullet::SimToSec(net.now()), probe_proto->num_senders(),
                probe_proto->max_senders(), probe_proto->have().count(), num_blocks, agg_mbps);
  });

  exp->Run();
  std::printf("completed %d/%d\n", exp->session_metrics(0).completed(), num_nodes - 1);
  return 0;
}
