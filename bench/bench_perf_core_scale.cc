// perf_core_scale — simulator-core scaling benchmark (no paper figure).
//
// Runs a Bullet' workload over the Fig. 14 wide-area topology at a 2 ms
// quantum (dirty-tracked allocation, cached TCP caps, O(1) idle quanta) and
// reports its wall clock next to the run's completion metrics. Correctness of
// the cached rates is not measured here: checked builds hold every quantum of
// every run to a full recompute (network.h).
//
// The committed baseline (bench/baselines/perf_core_baseline.json) pins the
// completion metrics; bench_check enforces it in CI with a wide band for the
// machine-dependent wall clock and the default band for the behavioural
// metrics.

#include <chrono>

#include "src/harness/scenario_registry.h"

namespace bullet {
namespace {

double WallSeconds(const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

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

  const auto t0 = std::chrono::steady_clock::now();
  const ScenarioResult result = RunScenario("bullet-prime", cfg);
  const double wall = WallSeconds(t0);

  ScenarioReport report(kScenarioName);
  report.AddCompletion("BulletPrime (incremental core)", result);
  report.AddScalar("wall_sec_incremental", wall);
  return report;
}

}  // namespace
}  // namespace bullet
