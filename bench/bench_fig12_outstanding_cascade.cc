// Fig. 12: cascading bandwidth changes. 8 participants: the source and 6 receivers
// reconcile over 10 Mbps / 1 ms links; the 8th node downloads from the 6 peers over
// dedicated 5 Mbps / 100 ms links; every 25 s another of those links collapses to
// 100 Kbps, cumulatively, until all are slow. 8 KB blocks, peer management disabled.
//
// Expected shape (paper): too many outstanding blocks (15/50) strand requests on
// collapsed links and delay the 8th node; the dynamic controller beats every fixed
// choice by 7-22% on the slowest node (3 and 6 outstanding are far slower still).

#include <string>

#include "src/core/config.h"
#include "src/harness/scenario_registry.h"
#include "src/sim/dynamics.h"

namespace bullet {
namespace {

constexpr int kNodes = 8;
constexpr NodeId kSlowNode = 7;

MeshTopology Fig12Topology() {
  MeshTopology topo(kNodes);
  for (NodeId n = 0; n < kNodes; ++n) {
    topo.uplink(n) = LinkParams{100e6, MsToSim(0), 0.0};
    topo.downlink(n) = LinkParams{100e6, MsToSim(0), 0.0};
  }
  for (NodeId s = 0; s < kNodes; ++s) {
    for (NodeId d = 0; d < kNodes; ++d) {
      if (s == d) {
        continue;
      }
      if (s == kSlowNode || d == kSlowNode) {
        topo.core(s, d) = LinkParams{5e6, MsToSim(100), 0.0};
      } else {
        topo.core(s, d) = LinkParams{10e6, MsToSim(1), 0.0};
      }
    }
  }
  return topo;
}

// The topology is fixed at 8 loss-free nodes, so --nodes, --topology and --loss
// do not apply; the file, seed, deadline and stream overrides do.
BULLET_SCENARIO(fig12_outstanding_cascade, "Fig. 12 — cascading bandwidth collapses") {
  ScenarioConfig cfg;
  cfg.file_mb = ScaledFileMb(100.0);
  cfg.block_bytes = 8 * 1024;
  cfg.seed = 1201;
  cfg.deadline = SecToSim(7200.0);
  ApplyScenarioOptions(opts, &cfg);

  WorkloadParams params;
  params.seed = cfg.seed;
  params.deadline = cfg.deadline;
  SessionSpec session;
  session.seed = cfg.seed;
  session.file.block_bytes = cfg.block_bytes;
  session.file.num_blocks = FileBlocks(cfg.file_mb, cfg.block_bytes);
  session.streaming = cfg.streaming;

  ScenarioReport report(kScenarioName);
  for (const int window : {0, 9, 15, 50, 6, 3}) {
    BulletPrimeConfig bp;
    bp.dynamic_peer_sets = false;  // the paper disables peer management here
    bp.initial_senders = 6;
    bp.initial_receivers = 7;
    std::string name;
    if (window == 0) {
      name = "BulletPrime dyn outstanding";
    } else {
      bp.dynamic_outstanding = false;
      bp.fixed_outstanding = window;
      name = "BulletPrime " + std::to_string(window) + " outstanding";
    }
    session.bullet_prime = bp;

    WorkloadExperiment exp(Fig12Topology(), params);
    exp.AddSession(session);
    // Every 25 s another peer's dedicated link toward the 8th node collapses.
    StartCascade(exp.net(), kSlowNode, {1, 2, 3, 4, 5, 6}, SecToSim(25.0), 100e3);
    exp.Run();

    const RunMetrics& metrics = exp.session_metrics(0);
    const auto all = metrics.CompletionSeconds(session.source, SimToSec(params.deadline));
    SeriesReport& s = report.AddSeries(name, all);
    s.metrics.emplace_back("slow_node_s", metrics.node(kSlowNode).completion >= 0
                                              ? SimToSec(metrics.node(kSlowNode).completion)
                                              : SimToSec(params.deadline));
  }
  return report;
}

}  // namespace
}  // namespace bullet
