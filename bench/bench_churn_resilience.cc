// Extension scenario (no paper figure): mesh resilience under node failures — the
// Section 1 argument that losing one of n peers costs ~1/n of a node's bandwidth.
// Sweeps the number of failed leaves on the Fig. 4 topology and reports survivor
// completion times; the dual sweep runs legacy Bullet, whose receivers depend partly
// on tree forwarding, for contrast.

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/harness/churn.h"
#include "src/harness/scenario_registry.h"

namespace bullet {
namespace {

struct ChurnRun {
  std::vector<double> survivor_times;
  // Victims that died: at most `kills`, as the control tree may have fewer
  // leaves and the run stops once the last survivor finishes.
  int failures = 0;
};

ChurnRun RunChurn(bool legacy, int kills, const ScenarioConfig& cfg) {
  WorkloadSpec workload;
  SessionSpec session;
  session.protocol = legacy ? "bullet" : "bullet-prime";
  session.seed = cfg.seed;
  workload.sessions.push_back(session);
  if (kills > 0) {
    // Each victim is failed and credited by the session's departure path, so
    // the run stops once the last survivor finishes.
    workload.churn = std::make_shared<LeafFailureChurn>(kills);
  }
  const std::unique_ptr<WorkloadExperiment> exp = BuildScenarioExperiment(cfg, workload);
  const WorkloadResult result = exp->Run();

  ChurnRun run;
  run.failures = result.total_departures;
  const RunMetrics& metrics = exp->session_metrics(0);
  for (NodeId n = 1; n < cfg.num_nodes; ++n) {
    const NodeMetrics& m = metrics.node(n);
    // A victim whose kill never came before the run ended is a survivor.
    if (m.departed >= 0) {
      continue;
    }
    run.survivor_times.push_back(m.completion >= 0 ? SimToSec(m.completion)
                                                   : SimToSec(cfg.deadline));
  }
  return run;
}

BULLET_SCENARIO(churn_resilience, "Extension — survivor completion under leaf failures") {
  ScenarioConfig cfg;
  cfg.num_nodes = 100;
  cfg.file_mb = ScaledFileMb(100.0);
  cfg.seed = 3001;
  cfg.deadline = SecToSim(7200.0);
  ApplyScenarioOptions(opts, &cfg);

  struct Sweep {
    const char* name;  // display name, matching the system's kSystems row
    bool legacy;
    int kills;
  };
  ScenarioReport report(kScenarioName);
  for (const Sweep sweep :
       {Sweep{"BulletPrime", false, 0}, Sweep{"BulletPrime", false, 10},
        Sweep{"BulletPrime", false, 25}, Sweep{"Bullet", true, 0}, Sweep{"Bullet", true, 25}}) {
    ChurnRun run = RunChurn(sweep.legacy, sweep.kills, cfg);
    // Name the failures that happened; fewer than requested (a small tree, or
    // kills scheduled after the last survivor finished) says so, which also
    // keeps the names of the capped series apart.
    std::string name = std::string(sweep.name) + " survivors, " +
                       std::to_string(run.failures) + " failures";
    if (run.failures < sweep.kills) {
      name += " (" + std::to_string(sweep.kills) + " requested)";
    }
    report.AddSeries(name, std::move(run.survivor_times));
  }
  return report;
}

}  // namespace
}  // namespace bullet
