// Fig. 20 (extension, no paper figure): mixed systems in one network. A
// Bullet' session and a BitTorrent session — disjoint interleaved member sets,
// separate sources and files — compete head-to-head over the same transit-stub
// gateways. Each session names its own system by key (kSystems), so one
// network can mix them, and per-session completion lets the faster system
// finish without cutting the slower one off.
//
// Fixed system roster (the comparison *is* the scenario), so --system is
// ignored like any other override that does not apply.

#include "bench/session_common.h"
#include "src/harness/scenario_registry.h"

namespace bullet {
namespace {

BULLET_SCENARIO(fig20_mixed_systems,
                "Extension — Bullet' vs BitTorrent sessions competing in one network") {
  ScenarioConfig cfg;
  cfg.topo = ScenarioConfig::Topo::kTransitStub;
  cfg.num_nodes = 60;
  cfg.file_mb = ScaledFileMb(10.0);
  cfg.block_bytes = 100 * 1024;  // match fig17/fig19's wide-area block size
  cfg.seed = 2001;
  ApplyScenarioOptions(opts, &cfg);
  cfg.topo = ScenarioConfig::Topo::kTransitStub;
  cfg.transit_stub = ScaledTransitStub(cfg.num_nodes);

  WorkloadSpec workload;
  {
    SessionSpec a;
    a.name = "BulletPrime (mixed)";
    a.protocol = "bullet-prime";
    a.members = EvenMembers(cfg.num_nodes);
    a.source = 0;
    workload.sessions.push_back(std::move(a));
  }
  {
    SessionSpec b;
    b.name = "BitTorrent (mixed)";
    b.protocol = "bittorrent";
    b.members = OddMembers(cfg.num_nodes);
    b.source = 1;
    workload.sessions.push_back(std::move(b));
  }

  const WorkloadResult wl = BuildScenarioExperiment(cfg, workload)->Run();

  ScenarioReport report(kScenarioName);
  report.AddCompletion(wl);
  report.AddScalar("max_flows_on_shared_link", wl.max_shared_link_flows);
  report.AddScalar("sessions_completed", wl.sessions_completed);
  return report;
}

}  // namespace
}  // namespace bullet
