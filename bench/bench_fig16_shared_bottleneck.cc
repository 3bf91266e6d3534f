// Fig. 16 (extension, no paper figure): shared-bottleneck dissemination on a
// routed dumbbell. Two stub routers joined by one duplex core link; the source
// and half the overlay sit on the left, the other half on the right, so every
// left-to-right flow competes max-min for the same interior link — the regime
// the dense mesh (one private core link per ordered pair) cannot express.
//
// The scenario runs the identical workload twice: once on the routed dumbbell
// and once on a mesh whose per-pair core links each carry the full bottleneck
// bandwidth. The completion gap is the cost of actually sharing the pipe, and
// `max_flows_on_shared_link` (the allocator's peak per-interior-link flow
// count) demonstrates that >= 2 flows were constrained by one shared core link
// — asserted in tests/sim/routed_topology_test.cc and visible in the BENCH
// output here.

#include "src/harness/scenario_registry.h"

namespace bullet {
namespace {

constexpr double kBottleneckBps = 10e6;
constexpr SimTime kBottleneckDelay = MsToSim(20);

RoutedTopology DumbbellTopology(int nodes) {
  RoutedTopology topo(nodes, /*num_routers=*/2);
  for (NodeId n = 0; n < nodes; ++n) {
    topo.uplink(n) = LinkParams{6e6, MsToSim(1), 0.0};
    topo.downlink(n) = LinkParams{6e6, MsToSim(1), 0.0};
    topo.AttachNode(n, n < nodes / 2 ? 0 : 1);
  }
  topo.AddDuplexEdge(0, 1, LinkParams{kBottleneckBps, kBottleneckDelay, 0.0});
  return topo;
}

// The private-core control: same access links and delay, but every ordered pair
// gets its own kBottleneckBps core link, so cross traffic never shares capacity.
MeshTopology PrivateCoreTopology(int nodes) {
  MeshTopology topo(nodes);
  for (NodeId n = 0; n < nodes; ++n) {
    topo.uplink(n) = LinkParams{6e6, MsToSim(1), 0.0};
    topo.downlink(n) = LinkParams{6e6, MsToSim(1), 0.0};
  }
  for (NodeId s = 0; s < nodes; ++s) {
    for (NodeId d = 0; d < nodes; ++d) {
      if (s != d) {
        topo.core(s, d) = LinkParams{kBottleneckBps, kBottleneckDelay, 0.0};
      }
    }
  }
  return topo;
}

// Both topologies are built here with loss-free links, so --topology and --loss
// do not apply; the size, file, seed, deadline and stream overrides do.
BULLET_SCENARIO(fig16_shared_bottleneck,
                "Extension — routed dumbbell: flows share one bottleneck core link") {
  ScenarioConfig cfg;
  cfg.num_nodes = 16;
  cfg.file_mb = ScaledFileMb(10.0);
  cfg.block_bytes = 16 * 1024;
  cfg.seed = 1601;
  cfg.deadline = SecToSim(7200.0);
  ApplyScenarioOptions(opts, &cfg);

  const int nodes = cfg.num_nodes;
  WorkloadParams params;
  params.seed = cfg.seed;
  params.deadline = cfg.deadline;
  SessionSpec session;
  session.seed = cfg.seed;
  session.file.block_bytes = cfg.block_bytes;
  session.file.num_blocks = FileBlocks(cfg.file_mb, cfg.block_bytes);
  session.streaming = cfg.streaming;

  ScenarioReport report(kScenarioName);
  int32_t shared_flows = 0;
  int32_t private_flows = 0;
  for (const bool shared : {true, false}) {
    WorkloadExperiment exp = shared ? WorkloadExperiment(DumbbellTopology(nodes), params)
                                    : WorkloadExperiment(PrivateCoreTopology(nodes), params);
    exp.AddSession(session);
    const WorkloadResult result = exp.Run();
    report.AddSeries(shared ? "BulletPrime (shared dumbbell core)"
                            : "BulletPrime (private per-pair cores)",
                     exp.session_metrics(0).CompletionSeconds(session.source,
                                                              SimToSec(params.deadline)));
    (shared ? shared_flows : private_flows) = result.max_shared_link_flows;
  }

  report.AddScalar("bottleneck_mbps", kBottleneckBps / 1e6);
  // >= 2 on the dumbbell: the shared-bottleneck acceptance signal.
  report.AddScalar("max_flows_on_shared_link", shared_flows);
  report.AddScalar("max_flows_on_private_link", private_flows);
  return report;
}

}  // namespace
}  // namespace bullet
