// perf_core_scale — simulator-core scaling benchmark (no paper figure).
//
// Runs a Bullet' workload over the Fig. 14 wide-area topology at a 2 ms
// quantum (dirty-tracked allocation, cached TCP caps, O(1) idle quanta) and
// reports the run's completion metrics and deterministic run counters.
// Correctness of the cached rates is not measured here: checked builds hold
// every quantum of every run to a full recompute (network.h).
//
// The committed baseline (bench/baselines/perf_core_baseline.json) pins the
// completion metrics at the default band; the sweep's floors document
// carries each point's wall time, and CI gates its events/sec and
// sim-bytes/sec against bench/baselines/perf_core_floors.json.

#include "src/harness/scenario_registry.h"

namespace bullet {
namespace {

BULLET_SCENARIO(perf_core_scale,
                "Perf — simulator core at a 2 ms quantum, wide-area topology") {
  ScenarioConfig cfg;
  cfg.topo = ScenarioConfig::Topo::kWideArea;
  cfg.num_nodes = 200;
  cfg.file_mb = ScaledFileMb(50.0);  // the Fig. 14 file size
  cfg.block_bytes = 100 * 1024;  // the wide-area deployment's block size (Section 4.7)
  cfg.seed = 3001;
  cfg.deadline = SecToSim(3600.0);
  // Finer-grained emulation than the paper's 10 ms: per-quantum cost is what this
  // benchmark scales, and production-fidelity quanta are where the tick loop
  // must be event-driven rather than O(flows x links) every quantum.
  cfg.net.quantum = MsToSim(2);
  ApplyScenarioOptions(opts, &cfg);

  ScenarioReport report(kScenarioName);
  report.AddCompletion("BulletPrime (incremental core)", RunScenario("bullet-prime", cfg));
  return report;
}

}  // namespace
}  // namespace bullet
