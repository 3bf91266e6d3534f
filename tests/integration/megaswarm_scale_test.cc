// End-to-end contract of the mega-swarm scale subsystem (ctest label
// `routed`): enabling route compression must not move a single bit of any
// scenario result, the aggregated allocator must still complete transfers,
// and the memory telemetry must flow through ScenarioResult so the megaswarm
// ceilings gate has real numbers to check.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

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

void ExpectBitwiseEqualResults(const ScenarioResult& a, const ScenarioResult& b) {
  ASSERT_EQ(a.completion_sec.size(), b.completion_sec.size());
  for (size_t i = 0; i < a.completion_sec.size(); ++i) {
    EXPECT_EQ(a.completion_sec[i], b.completion_sec[i]) << "receiver " << i;
  }
  ASSERT_EQ(a.download_sec.size(), b.download_sec.size());
  for (size_t i = 0; i < a.download_sec.size(); ++i) {
    EXPECT_EQ(a.download_sec[i], b.download_sec[i]) << "receiver " << i;
  }
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.duplicate_fraction, b.duplicate_fraction);
  EXPECT_EQ(a.control_overhead, b.control_overhead);
  EXPECT_EQ(a.max_shared_link_flows, b.max_shared_link_flows);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.allocator_epochs, b.allocator_epochs);
  EXPECT_EQ(a.sim_bytes_sent, b.sim_bytes_sent);
}

TEST(MegaswarmScale, CompressedRoutesDoNotPerturbScenarioResults) {
  ScenarioConfig cfg = SmallMegaswarmConfig();
  cfg.compress_routes = false;
  const ScenarioResult plain = RunScenario("bullet-prime", cfg);
  cfg.compress_routes = true;
  const ScenarioResult compressed = RunScenario("bullet-prime", cfg);
  EXPECT_EQ(plain.completed, plain.receivers);
  ExpectBitwiseEqualResults(plain, compressed);
}

TEST(MegaswarmScale, AggregatedAllocatorCompletesTransfers) {
  // Aggregated mode is NOT bit-identical to the exact allocator, but it must
  // remain a working network: every receiver finishes, and the completion
  // times stay in the same regime as the exact run (feasibility means rates
  // can only be redistributed, not conjured).
  ScenarioConfig cfg = SmallMegaswarmConfig();
  const ScenarioResult exact = RunScenario("bullet-prime", cfg);
  cfg.aggregate_flows = true;
  cfg.compress_routes = true;
  const ScenarioResult aggregated = RunScenario("bullet-prime", cfg);
  EXPECT_EQ(aggregated.completed, aggregated.receivers);
  ASSERT_FALSE(aggregated.completion_sec.empty());
  const double exact_max = *std::max_element(exact.completion_sec.begin(),
                                             exact.completion_sec.end());
  const double agg_max = *std::max_element(aggregated.completion_sec.begin(),
                                           aggregated.completion_sec.end());
  EXPECT_LT(agg_max, exact_max * 3.0);
  EXPECT_GT(agg_max, exact_max / 3.0);
}

TEST(MegaswarmScale, MemoryTelemetryFlowsThroughScenarioResult) {
  ScenarioConfig cfg = SmallMegaswarmConfig();
  const ScenarioResult r = RunScenario("bullet-prime", cfg);
  // Transit-stub routing populates the per-pair route cache and the PathCache
  // arena; Bullet' peer tables live on the counted protocol arenas.
  EXPECT_GT(r.route_cache_bytes, 0u);
  EXPECT_GT(r.path_pool_bytes, 0u);
  EXPECT_GT(r.arena_peak_bytes, 0u);

  // BitTorrent's peer table is arena-backed too.
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
