// Fig. 17 (extension, no paper figure): dissemination over a routed transit-stub
// graph. Stub domains hang off transit routers through 30 Mbps gateway links that
// every node in the domain shares, so cross-domain traffic is constrained by a
// handful of genuinely shared interior links instead of the mesh's per-pair
// private cores. Reports Bullet' vs BitTorrent completions plus the allocator's
// peak shared-link flow count.
//
// The scenario also measures what the routed representation costs to *build*:
// MemoryFootprintBytes() for transit-stub graphs at 500/1000/2000 overlay nodes
// (the shape scales stub domains with the node count), against the analytic
// dense-mesh core matrix for 2000 nodes. The committed baseline
// (bench/baselines/routed_topo_baseline.json) gates the growth ratio: doubling
// the nodes must grow the footprint ~linearly (ratio ~2; the dense mesh would
// be 4), which is what clears the ROADMAP's path past ~1000 nodes.

#include <algorithm>
#include <memory>
#include <string>

#include "bench/session_common.h"
#include "src/harness/scenario_registry.h"

namespace bullet {
namespace {

BULLET_SCENARIO(fig17_transitstub_widearea,
                "Extension — routed transit-stub wide-area dissemination") {
  ScenarioConfig cfg;
  cfg.topo = ScenarioConfig::Topo::kTransitStub;
  cfg.num_nodes = 60;
  cfg.file_mb = ScaledFileMb(20.0);
  cfg.block_bytes = 100 * 1024;  // the wide-area deployment's block size (Section 4.7)
  cfg.seed = 1701;
  ApplyScenarioOptions(opts, &cfg);
  // The scenario *is* the routed graph: series labels and the memory scalars
  // below all describe transit-stub, so a --topology override is ignored here
  // (like any other fixed-topology scenario).
  cfg.topo = ScenarioConfig::Topo::kTransitStub;
  cfg.transit_stub = ScaledTransitStub(cfg.num_nodes);

  ScenarioReport report(kScenarioName);
  int32_t shared_flows = 0;
  for (const char* system : {"bullet-prime", "bittorrent"}) {
    const WorkloadResult r = RunScenario(system, cfg);
    report.AddCompletion(r.sessions.front().name + " (transit-stub)", r);
    shared_flows = std::max(shared_flows, r.max_shared_link_flows);
  }
  report.AddScalar("max_flows_on_shared_link", shared_flows);

  // Topology-build memory scaling (no simulation, deterministic byte counts).
  double bytes_at[3] = {0.0, 0.0, 0.0};
  const int scales[3] = {500, 1000, 2000};
  for (int i = 0; i < 3; ++i) {
    Rng rng(cfg.seed ^ 0x74d3c2e1b5a69788ULL);
    const RoutedTopology topo = RoutedTopology::TransitStub(ScaledTransitStub(scales[i]), rng);
    bytes_at[i] = static_cast<double>(topo.MemoryFootprintBytes());
    report.AddScalar("routed_build_bytes_n" + std::to_string(scales[i]), bytes_at[i]);
  }
  report.AddScalar("routed_build_growth_2000_over_1000", bytes_at[2] / bytes_at[1]);
  // The dense mesh holds N^2 core LinkParams for 2000 nodes — the quadratic
  // wall the routed representation avoids.
  report.AddScalar("mesh_core_bytes_n2000", 2000.0 * 2000.0 * sizeof(LinkParams));
  return report;
}

}  // namespace
}  // namespace bullet
