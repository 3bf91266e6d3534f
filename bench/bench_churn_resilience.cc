// Extension scenario (no paper figure): mesh resilience under node failures — the
// Section 1 argument that losing one of n peers costs ~1/n of a node's bandwidth.
// Sweeps the number of failed leaves on the Fig. 4 topology and reports survivor
// completion times; the dual sweep runs legacy Bullet, whose receivers depend partly
// on tree forwarding, for contrast.

#include <string>
#include <vector>

#include "src/harness/churn.h"
#include "src/harness/scenario_registry.h"

namespace bullet {
namespace {

std::vector<double> RunChurn(bool legacy, int kills, const ScenarioConfig& cfg) {
  WorkloadExperiment exp(BuildScenarioTopology(cfg), ScenarioWorkloadParams(cfg));
  SessionSpec session;
  session.protocol = legacy ? "bullet" : "bullet-prime";
  session.seed = cfg.seed;
  session.file.block_bytes = cfg.block_bytes;
  session.file.num_blocks = FileBlocks(cfg.file_mb, cfg.block_bytes);
  exp.AddSession(session);

  std::vector<char> is_victim(static_cast<size_t>(cfg.num_nodes), 0);
  if (kills > 0) {
    Rng churn_rng(cfg.seed ^ 0xc0ffee);
    const ChurnPlan plan = PlanLeafFailures(exp.session_tree(0), session.source, kills, churn_rng);
    for (const NodeId v : plan.victims) {
      is_victim[static_cast<size_t>(v)] = 1;
    }
    ScheduleChurn(exp.net(), plan);
  }
  exp.Run();

  const RunMetrics& metrics = exp.session_metrics(0);
  std::vector<double> survivor_times;
  for (NodeId n = 1; n < cfg.num_nodes; ++n) {
    if (is_victim[static_cast<size_t>(n)]) {
      continue;
    }
    survivor_times.push_back(metrics.node(n).completion >= 0
                                 ? SimToSec(metrics.node(n).completion)
                                 : SimToSec(cfg.deadline));
  }
  return survivor_times;
}

BULLET_SCENARIO(churn_resilience, "Extension — survivor completion under leaf failures") {
  ScenarioConfig cfg;
  cfg.num_nodes = 100;
  cfg.file_mb = ScaledFileMb(100.0);
  cfg.seed = 3001;
  cfg.deadline = SecToSim(7200.0);
  ApplyScenarioOptions(opts, &cfg);

  struct Sweep {
    const char* name;  // display name, matching the registry's display_name
    bool legacy;
    int kills;
  };
  ScenarioReport report(kScenarioName);
  for (const Sweep sweep :
       {Sweep{"BulletPrime", false, 0}, Sweep{"BulletPrime", false, 10},
        Sweep{"BulletPrime", false, 25}, Sweep{"Bullet", true, 0}, Sweep{"Bullet", true, 25}}) {
    const auto times = RunChurn(sweep.legacy, sweep.kills, cfg);
    report.AddSeries(std::string(sweep.name) + " survivors, " +
                         std::to_string(sweep.kills) + " failures",
                     times);
  }
  return report;
}

}  // namespace
}  // namespace bullet
