// Fig. 10: per-peer outstanding-request windows (3/6/9/15/50 fixed vs dynamic) with
// neither bandwidth changes nor losses: 25 participants on uniform 10 Mbps / 100 ms
// links, 8 KB blocks.
//
// Expected shape (paper): small fixed windows cannot fill the 10 Mbps * 200 ms RTT
// bandwidth-delay product (~31 blocks of 8 KB in flight across the request loop);
// the dynamic controller tracks the large-window configurations.

#include "src/harness/scenario_registry.h"
#include "bench/outstanding_common.h"

namespace bullet {
namespace {

BULLET_SCENARIO(fig10_outstanding_noloss, "Fig. 10 — outstanding windows, no losses") {
  ScenarioConfig cfg;
  cfg.topo = ScenarioConfig::Topo::kUniform;
  cfg.num_nodes = 25;
  cfg.file_mb = ScaledFileMb(100.0);
  cfg.block_bytes = 8 * 1024;
  cfg.loss_max = 0.0;
  cfg.seed = 1001;
  ApplyScenarioOptions(opts, &cfg);

  ScenarioReport report(kScenarioName);
  bench::RunOutstandingSweep(cfg, {50, 0, 15, 9, 6, 3}, &report);
  return report;
}

}  // namespace
}  // namespace bullet
