// Fig. 11: the Fig. 10 windows under 0-1.5% random core losses.
//
// Expected shape (paper): TCP now achieves lower rates, so less data in flight
// suffices; hoarding 50 outstanding blocks on a connection that slows down strands
// requests, and the dynamic controller beats every static choice.

#include "src/harness/scenario_registry.h"
#include "bench/outstanding_common.h"

namespace bullet {
namespace {

BULLET_SCENARIO(fig11_outstanding_loss, "Fig. 11 — outstanding windows under random losses") {
  ScenarioConfig cfg;
  cfg.topo = ScenarioConfig::Topo::kUniform;
  cfg.num_nodes = 25;
  cfg.file_mb = ScaledFileMb(100.0);
  cfg.block_bytes = 8 * 1024;
  cfg.loss_min = 0.0;
  cfg.loss_max = 0.015;
  cfg.seed = 1101;
  ApplyScenarioOptions(opts, &cfg);

  ScenarioReport report(kScenarioName);
  bench::RunOutstandingSweep(cfg, {0, 15, 50, 9, 6, 3}, &report);
  return report;
}

}  // namespace
}  // namespace bullet
