// perf_core_scale — simulator-core scaling benchmark (no paper figure).
//
// Runs the same Bullet' workload over the Fig. 14 wide-area topology twice: once
// under the default incremental tick (dirty-tracked allocation, cached TCP caps,
// O(1) idle quanta) and once under the pre-PR tick loop (full flow rebuild +
// max-min recompute every quantum), and reports both wall clocks plus their
// ratio. The two paths must agree flow-for-flow: `paths_match` is 1.0 only when
// every receiver's completion time is bit-identical across the two runs, which
// makes this scenario a large-scale determinism check as well as a speed gate.
//
// The committed baseline (bench/baselines/perf_core_baseline.json) pins the
// speedup; bench_check enforces it in CI with a wide band for the wall-clock
// metrics (machine-dependent) and a tight band for the behavioural ones.

#include <chrono>

#include "src/harness/scenario_registry.h"

namespace bullet {
namespace {

double WallSeconds(const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

BULLET_SCENARIO(perf_core_scale,
                "Perf — incremental vs full-recompute simulator core, wide-area topology") {
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

  cfg.net.allocator_mode = NetworkConfig::AllocatorMode::kIncremental;
  const auto t_inc = std::chrono::steady_clock::now();
  const ScenarioResult inc = RunScenario("bullet-prime", cfg);
  const double wall_inc = WallSeconds(t_inc);

  cfg.net.allocator_mode = NetworkConfig::AllocatorMode::kFullRecompute;
  const auto t_full = std::chrono::steady_clock::now();
  const ScenarioResult full = RunScenario("bullet-prime", cfg);
  const double wall_full = WallSeconds(t_full);

  report.AddCompletion("BulletPrime (incremental core)", inc);
  report.AddCompletion("BulletPrime (full-recompute core)", full);
  report.AddScalar("wall_sec_incremental", wall_inc);
  report.AddScalar("wall_sec_full_recompute", wall_full);
  report.AddScalar("speedup_full_over_incremental", wall_inc > 0.0 ? wall_full / wall_inc : 0.0);
  report.AddScalar("paths_match", inc.completion_sec == full.completion_sec ? 1.0 : 0.0);
  return report;
}

}  // namespace
}  // namespace bullet
