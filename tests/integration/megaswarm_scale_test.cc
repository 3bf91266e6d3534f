// End-to-end contract of the mega-swarm scale subsystem (ctest label
// `routed`): the memory telemetry must flow through ScenarioResult so the
// megaswarm ceilings gate has real numbers to check. (Composed transit-stub
// routes are held to the per-pair Dijkstra walk in scale_subsystem_test.)

#include <gtest/gtest.h>

#include "src/harness/scenarios.h"

namespace bullet {
namespace {

ScenarioConfig SmallMegaswarmConfig() {
  ScenarioConfig cfg;
  cfg.topo = ScenarioConfig::Topo::kTransitStub;
  cfg.num_nodes = 24;
  cfg.file_mb = 1.0;
  cfg.block_bytes = 16 * 1024;
  cfg.seed = 2401;
  return cfg;
}

TEST(MegaswarmScale, MemoryTelemetryFlowsThroughScenarioResult) {
  ScenarioConfig cfg = SmallMegaswarmConfig();
  const ScenarioResult r = RunScenario("bullet-prime", cfg);
  // Transit-stub routing populates the segment cache and the PathCache
  // pool; Bullet' peer tables are charged to the network's ArenaCounter.
  EXPECT_GT(r.route_cache_bytes, 0u);
  EXPECT_GT(r.path_pool_bytes, 0u);
  EXPECT_GT(r.arena_peak_bytes, 0u);

  // BitTorrent's peer table is counted too.
  const ScenarioResult bt = RunScenario("bittorrent", cfg);
  EXPECT_GT(bt.arena_peak_bytes, 0u);
}

TEST(MegaswarmScale, MeshTopologyReportsNoRouteCache) {
  ScenarioConfig cfg = SmallMegaswarmConfig();
  cfg.topo = ScenarioConfig::Topo::kMesh;
  const ScenarioResult r = RunScenario("bullet-prime", cfg);
  // Dense mesh paths are computed from the matrix, not a route cache.
  EXPECT_EQ(r.route_cache_bytes, 0u);
  EXPECT_GT(r.arena_peak_bytes, 0u);
}

}  // namespace
}  // namespace bullet
