// Fig. 19 (extension, no paper figure): two concurrent sessions — two files,
// disjoint sources and receiver sets — competing over the shared transit-stub
// core from PR 4. Members interleave (evens vs odds), so both sessions run
// through the same stub gateway and transit links; the allocator's
// max_flows_on_shared_link scalar shows flows from *both* transfers stacked on
// one interior link, which is impossible in the single-session harness (and on
// the legacy mesh, where every pair has a private core link).
//
// Completion is per-session: whichever session finishes first must not stop
// the other (tests/harness/workload_test.cc pins this; here the
// sessions_completed scalar shows both ran to completion).

#include "bench/session_common.h"
#include "src/harness/scenario_registry.h"

namespace bullet {
namespace {

BULLET_SCENARIO(fig19_concurrent_sessions,
                "Extension — two concurrent sessions over a shared transit-stub core") {
  ScenarioConfig cfg;
  cfg.topo = ScenarioConfig::Topo::kTransitStub;
  cfg.num_nodes = 60;
  cfg.file_mb = ScaledFileMb(10.0);
  cfg.block_bytes = 100 * 1024;  // the wide-area deployment's block size (Section 4.7)
  cfg.seed = 1901;
  ApplyScenarioOptions(opts, &cfg);
  // The scenario *is* the shared routed core; see fig17 for the same rule.
  cfg.topo = ScenarioConfig::Topo::kTransitStub;
  cfg.transit_stub = ScaledTransitStub(cfg.num_nodes);

  // Subset sessions: a --system that cannot run over half the nodes
  // (splitstream) is ignored like any other inapplicable override.
  const std::string protocol = ScenarioSubsetSystemOr(cfg, "bullet-prime");
  WorkloadSpec workload;
  {
    SessionSpec a;
    a.name = "session A";
    a.protocol = protocol;
    a.members = EvenMembers(cfg.num_nodes);
    a.source = 0;
    workload.sessions.push_back(std::move(a));
  }
  {
    SessionSpec b;
    b.name = "session B";
    b.protocol = protocol;
    b.members = OddMembers(cfg.num_nodes);
    b.source = 1;
    workload.sessions.push_back(std::move(b));
  }
  // Session seeds are left unset: each derives its own stream from the
  // workload seed and its index, so A and B build different trees and meshes.

  const WorkloadResult wl = RunScenarioWorkload(cfg, workload);

  ScenarioReport report(kScenarioName);
  for (const SessionResult& session : wl.sessions) {
    report.AddCompletion(session.name, ToScenarioResult(session, wl));
  }
  report.AddScalar("max_flows_on_shared_link", wl.max_shared_link_flows);
  report.AddScalar("sessions_completed", wl.sessions_completed);
  return report;
}

}  // namespace
}  // namespace bullet
