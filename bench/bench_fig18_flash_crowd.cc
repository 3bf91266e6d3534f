// Fig. 18 (extension, no paper figure): flash crowd with staggered joins. The
// paper's premise is maintaining high bandwidth under *dynamic* conditions,
// but its experiments join every node at t=0; this scenario exercises the
// session API's join schedule — a small early cohort starts the transfer, then
// a crowd (80% of receivers by default; --join-fraction overrides) piles in
// mid-transfer. The control tree is join-staged (parents always join no later
// than their children) and completion is session-scoped, so the run ends when
// the *whole* session finishes, late joiners included.
//
// Reported series: absolute completion CDF over all receivers, plus the
// early/late cohorts' download times measured from each receiver's own join —
// the number a late joiner's user experiences. A healthy mesh keeps the late
// cohort's download time close to the early cohort's (the crowd bootstraps
// from many already-seeded peers) instead of serializing behind the source.

#include <algorithm>
#include <cmath>

#include "bench/session_common.h"
#include "src/harness/scenario_registry.h"

namespace bullet {
namespace {

BULLET_SCENARIO(fig18_flash_crowd, "Extension — flash crowd: 80% of nodes join mid-transfer") {
  ScenarioConfig cfg;
  cfg.num_nodes = 60;
  cfg.file_mb = ScaledFileMb(20.0);
  cfg.seed = 1801;
  ApplyScenarioOptions(opts, &cfg);

  const double late_fraction = opts.join_fraction.value_or(0.8);
  const int receivers = cfg.num_nodes - 1;
  const int late_count =
      std::min(receivers, static_cast<int>(std::lround(late_fraction * receivers)));
  // Mid-transfer: half the TCP-feasible time (transfer plus the ~12 s
  // tree/RanSub startup) lands inside the early cohort's downloads at any
  // REPRO_SCALE — the access-link optimum alone would undershoot, since real
  // completions carry the startup cost too.
  const double join_sec = 0.5 * TcpFeasibleSeconds(cfg.file_mb, 6e6, /*startup_sec=*/12.0);

  WorkloadSpec workload;
  SessionSpec session;
  session.protocol = opts.system.value_or("bullet-prime");
  session.seed = cfg.seed;
  for (NodeId node = 0; node < cfg.num_nodes; ++node) {
    session.members.push_back(node);
    // The crowd is the high half of the id space; ids are interchangeable on
    // the scenario topologies, so which ids join late is immaterial.
    const bool late = node >= cfg.num_nodes - late_count;
    session.join_offsets.push_back(late ? SecToSim(join_sec) : 0);
  }
  workload.sessions.push_back(session);

  const WorkloadResult wl = RunScenarioWorkload(cfg, workload);
  const ScenarioResult result = ToScenarioResult(wl.sessions.front(), wl);

  ScenarioReport report(kScenarioName);
  report.AddCompletion(result.name, result);
  // download_sec is in member order with the source excluded: receivers
  // 1..n-1, so the late cohort is exactly the trailing late_count entries.
  std::vector<double> early(result.download_sec.begin(),
                            result.download_sec.end() - late_count);
  std::vector<double> late(result.download_sec.end() - late_count, result.download_sec.end());
  report.AddSeries(result.name + " early download", std::move(early));
  report.AddSeries(result.name + " late download", std::move(late));
  report.AddScalar("late_fraction", late_fraction);
  report.AddScalar("late_receivers", late_count);
  report.AddScalar("late_join_s", join_sec);
  report.AddScalar("sessions_completed", wl.sessions_completed);
  return report;
}

}  // namespace
}  // namespace bullet
