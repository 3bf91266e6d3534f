// Fig. 14: the wide-area (PlanetLab) comparison — 41 heterogeneous sites, 50 MB
// file, 100 KB blocks, Bullet' vs Bullet vs BitTorrent vs SplitStream.
//
// The PlanetLab testbed is replaced by the synthetic wide-area topology described in
// DESIGN.md (heterogeneous 1-20 Mbps uplinks, 10-400 ms RTTs, light random loss).
//
// Expected shape (paper): Bullet' consistently fastest; its slowest node finishes
// several hundred seconds before BitTorrent's slowest.

#include "src/harness/scenario_registry.h"

namespace bullet {
namespace {

BULLET_SCENARIO(fig14_widearea, "Fig. 14 — wide-area (PlanetLab stand-in) comparison") {
  ScenarioConfig cfg;
  cfg.topo = ScenarioConfig::Topo::kWideArea;
  cfg.num_nodes = 41;
  cfg.file_mb = ScaledFileMb(50.0);
  cfg.block_bytes = 100 * 1024;  // the deployment's block size (Section 4.7)
  cfg.seed = 1401;
  ApplyScenarioOptions(opts, &cfg);

  ScenarioReport report(kScenarioName);
  for (const char* system : {"bullet-prime", "bullet", "bittorrent", "splitstream"}) {
    const WorkloadResult r = RunScenario(system, cfg);
    report.AddCompletion(r.sessions.front().name + " (wide-area)", r);
  }
  return report;
}

}  // namespace
}  // namespace bullet
