// Fig. 21 (extension, no paper figure): dissemination under *member* dynamics —
// diurnal arrivals, heavy-tailed Pareto lifetimes, and seeders that leave
// shortly after completing. Receivers whose lifetime expires mid-download
// depart incomplete (reported at the deadline in the CDF), so a system that
// finishes faster keeps more of the Pareto tail: Bullet' completes essentially
// everyone, while BitTorrent and SplitStream — 2-3x slower on this topology
// (Fig. 4) — lose the receivers whose stay ends before their download does.
//
// The lifetime floor scales with the TCP-feasible transfer time, so the
// contrast survives REPRO_SCALE and --nodes overrides; --lifetime-pareto-alpha
// sweeps the tail index (smaller = heavier tail = more departures).

#include <memory>
#include <string>

#include "src/harness/scenario_registry.h"
#include "src/harness/workload_gen.h"

namespace bullet {
namespace {

BULLET_SCENARIO(fig21_churn_lifetimes,
                "Extension — Pareto lifetimes, diurnal arrivals, seeder departure") {
  ScenarioConfig cfg;
  cfg.num_nodes = 100;
  cfg.file_mb = ScaledFileMb(100.0);
  cfg.seed = 2101;
  ApplyScenarioOptions(opts, &cfg);

  const double alpha = opts.lifetime_pareto_alpha.value_or(1.5);
  const double feasible = TcpFeasibleSeconds(cfg.file_mb, 6e6, /*startup_sec=*/12.0);
  // Everyone stays at least ~2x the feasible transfer time — long enough for a
  // near-optimal system to finish inside the minimum stay, short enough that a
  // 2-3x-slower system's receivers start expiring.
  const SimTime min_stay = SecToSim(2.0 * feasible);

  // Receivers trickle in over ~2 minutes under the diurnal rate curve; the
  // generators are shared across systems so every run sees the same processes
  // (each still draws from its own session-seeded stream).
  const auto arrivals = std::make_shared<DiurnalArrivals>(
      (cfg.num_nodes - 1) / 120.0, /*amplitude=*/0.8, /*period=*/SecToSim(120.0));
  // A 30s linger keeps fast finishers seeding long enough to overlap the
  // diurnal tail of late joiners before they leave.
  const auto lifetimes = std::make_shared<ParetoLifetime>(
      alpha, min_stay, /*depart_after_completion=*/true, /*linger=*/SecToSim(30.0));

  ScenarioReport report(kScenarioName);
  int total_departed_incomplete = 0;
  for (const char* system : {"bullet-prime", "bittorrent", "splitstream"}) {
    WorkloadSpec workload;
    SessionSpec session;
    session.protocol = system;
    session.source = 0;
    session.seed = cfg.seed;
    session.arrivals = arrivals;
    session.lifetimes = lifetimes;
    workload.sessions.push_back(std::move(session));

    const WorkloadResult wl = BuildScenarioExperiment(cfg, workload)->Run();
    const SessionResult& r = wl.sessions.front();
    report.AddCompletion(wl);
    // Underscored keys: metric names are dotted with the series name downstream.
    const std::string key = std::string(system) == "bullet-prime" ? "bullet_prime"
                                                                  : std::string(system);
    report.AddScalar(key + "_departed", r.departed);
    report.AddScalar(key + "_departed_incomplete", r.departed_incomplete);
    total_departed_incomplete += r.departed_incomplete;
  }
  report.AddScalar("lifetime_pareto_alpha", alpha);
  report.AddScalar("min_stay_s", SimToSec(min_stay));
  report.AddScalar("total_departed_incomplete", total_departed_incomplete);
  return report;
}

}  // namespace
}  // namespace bullet
