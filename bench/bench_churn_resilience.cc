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
  // Leaves that failed: at most `kills`, as the control tree may have fewer.
  int failures = 0;
};

ChurnRun RunChurn(bool legacy, int kills, const ScenarioConfig& cfg) {
  WorkloadSpec workload;
  SessionSpec session;
  session.protocol = legacy ? "bullet" : "bullet-prime";
  session.seed = cfg.seed;
  workload.sessions.push_back(session);
  const std::unique_ptr<WorkloadExperiment> exp = BuildScenarioExperiment(cfg, workload);

  ChurnRun run;
  std::vector<char> is_victim(static_cast<size_t>(cfg.num_nodes), 0);
  if (kills > 0) {
    Rng churn_rng(cfg.seed ^ 0xc0ffee);
    const ChurnPlan plan =
        PlanLeafFailures(exp->session_tree(0), session.source, kills, churn_rng);
    for (const NodeId v : plan.victims) {
      is_victim[static_cast<size_t>(v)] = 1;
    }
    ScheduleChurn(exp->net(), plan);
    run.failures = static_cast<int>(plan.victims.size());
  }
  exp->Run();

  const RunMetrics& metrics = exp->session_metrics(0);
  for (NodeId n = 1; n < cfg.num_nodes; ++n) {
    if (is_victim[static_cast<size_t>(n)]) {
      continue;
    }
    run.survivor_times.push_back(metrics.node(n).completion >= 0
                                     ? SimToSec(metrics.node(n).completion)
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
    // Name the failures that ran; a tree with fewer leaves than requested
    // says so, which also keeps the names of the capped series apart.
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
