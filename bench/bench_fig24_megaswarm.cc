// fig24_megaswarm (extension, no paper figure): the mega-swarm scale regime.
// The paper deploys Bullet' on hundreds of PlanetLab/ModelNet nodes; this
// scenario pushes the *simulator* to 100,000 swarm members on one machine to
// exercise the scale subsystem end to end:
//
//   * composed routes (every TransitStub-built RoutedTopology) — each
//     interior route is composed from its two stub legs and a walk of the
//     source transit router's shortest-path tree, and nothing is kept per
//     pair, so route memory scales with the router graph, not with member
//     pairs;
//   * the exact max-min allocator, as in every other scenario — every flow
//     competes on its own for every link it crosses, and an allocator epoch
//     costs what the busy flows cost (network.h);
//   * per-peer node state — every peer-table entry is its own allocation,
//     and the run reports the tables' live/peak bytes (arena_peak_bytes).
//
// Membership is a flash crowd (the fig18 shape via the generator API): a
// quarter of the receivers seed the swarm at t=0 and the rest pile in
// mid-transfer. The file is deliberately small — the scenario measures *swarm
// scale* (members, flows, routes), not transfer length, and 100k members
// downloading even a small file dominates any per-node cost.
//
// The memory telemetry lands as scalars (route_cache_bytes, path_pool_bytes,
// arena_peak_bytes), which the sweep engine turns into the bullet-ceilings-v1
// companion document; CI gates the megaswarm sweep one-sidedly against the
// committed ceilings (bench/baselines/megaswarm_ceilings.json) and against
// the usual events/sec floors.

#include <algorithm>
#include <cmath>
#include <memory>

#include "bench/session_common.h"
#include "src/harness/scenario_registry.h"
#include "src/harness/workload_gen.h"

namespace bullet {
namespace {

BULLET_SCENARIO(fig24_megaswarm,
                "Extension — mega-swarm: 100k-member flash crowd on composed routes, "
                "the exact allocator and per-entry peer tables") {
  ScenarioConfig cfg;
  cfg.topo = ScenarioConfig::Topo::kTransitStub;
  cfg.num_nodes = 100000;
  // Small on purpose: per-member work, not transfer length, is the load.
  // Pre-scale 1 MB (CI runs 20%) over 64 KB blocks keeps the block space tiny
  // while every member still exercises the request/diff/serve machinery.
  cfg.file_mb = ScaledFileMb(1.0);
  cfg.block_bytes = 64 * 1024;
  cfg.seed = 2401;
  cfg.deadline = SecToSim(7200.0);
  ApplyScenarioOptions(opts, &cfg);
  // The scenario *is* the mega-swarm routed graph; like fig17/perf_core_*,
  // a --topology override does not apply.
  cfg.topo = ScenarioConfig::Topo::kTransitStub;
  cfg.transit_stub = ScaledTransitStub(cfg.num_nodes);

  const double late_fraction = opts.join_fraction.value_or(0.75);
  // Mid-transfer of the early cohort (see fig18's reasoning); the crowd lands
  // while the seeders are still downloading, so the mesh must absorb it.
  const double join_sec = 0.5 * TcpFeasibleSeconds(cfg.file_mb, 6e6, /*startup_sec=*/12.0);

  WorkloadSpec workload;
  SessionSpec session;
  session.protocol = opts.system.value_or("bullet-prime");
  session.seed = cfg.seed;
  for (NodeId node = 0; node < cfg.num_nodes; ++node) {
    session.members.push_back(node);
  }
  session.arrivals = std::make_shared<FlashCrowdArrivals>(late_fraction, SecToSim(join_sec));
  workload.sessions.push_back(session);

  const WorkloadResult wl = RunScenarioWorkload(cfg, workload);
  const ScenarioResult result = ToScenarioResult(wl.sessions.front(), wl);

  ScenarioReport report(kScenarioName);
  report.AddCompletion(result.name, result);
  report.AddScalar("members", static_cast<double>(cfg.num_nodes));
  report.AddScalar("late_fraction", late_fraction);
  report.AddScalar("late_join_s", join_sec);
  report.AddScalar("sessions_completed", wl.sessions_completed);
  // Deterministic memory telemetry — the ceilings gate's inputs. Byte
  // counters, not RSS: identical for a given spec on every machine.
  report.AddScalar("route_cache_bytes", static_cast<double>(wl.route_cache_bytes));
  report.AddScalar("path_pool_bytes", static_cast<double>(wl.path_pool_bytes));
  report.AddScalar("arena_peak_bytes", static_cast<double>(wl.arena_peak_bytes));
  return report;
}

}  // namespace
}  // namespace bullet
