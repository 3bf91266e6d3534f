// Fig. 22 (extension, no paper figure): a correlated failure — an entire stub
// domain (or every stub under one transit router) going dark mid-transfer —
// over the routed transit-stub core, watched from the shared gateway uplinks.
// Mesh-based dissemination should absorb the outage: surviving receivers lose
// the peers (and in-flight transfers) they had inside the dead region, their
// gateway-uplink utilization dips, and then recovers as RanSub re-peers them
// with live nodes and the allocator refills the freed shared capacity.
//
// --churn-model picks the failure scope: "stub" (default) kills one stub
// domain, "gateway" kills every stub domain under one transit router, "leaf"
// kills scattered tree leaves (the uncorrelated control), "none" runs
// failure-free. The outage time scales with the TCP-feasible transfer time so
// it stays mid-run across REPRO_SCALE and --nodes overrides.

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bench/session_common.h"
#include "src/harness/scenario_registry.h"
#include "src/sim/dynamics.h"

namespace bullet {
namespace {

BULLET_SCENARIO(fig22_correlated_failures,
                "Extension — correlated stub/gateway outage over the transit-stub core") {
  ScenarioConfig cfg;
  cfg.topo = ScenarioConfig::Topo::kTransitStub;
  cfg.num_nodes = 60;
  cfg.file_mb = ScaledFileMb(10.0);
  cfg.block_bytes = 100 * 1024;  // the wide-area deployment's block size (Section 4.7)
  cfg.seed = 2201;
  ApplyScenarioOptions(opts, &cfg);
  // The scenario *is* the shared routed core; see fig17 for the same rule.
  cfg.topo = ScenarioConfig::Topo::kTransitStub;
  cfg.transit_stub = ScaledTransitStub(cfg.num_nodes);

  const std::string churn_name = opts.churn_model.value_or("stub");
  const double feasible = TcpFeasibleSeconds(cfg.file_mb, 6e6, /*startup_sec=*/12.0);
  const SimTime outage_at = SecToSim(0.8 * feasible);

  std::unique_ptr<Topology> topology = BuildScenarioTopology(cfg);
  const RoutedTopology* routed = topology->AsRouted();
  const RoutedTopology::TransitStubInfo* info = routed->transit_stub_info();
  // One sampled link per stub domain: the transit->gateway direction of its
  // shared uplink carries the stub's download traffic — the dominant direction
  // for dissemination. (Pointers into the topology stay valid after the move;
  // the experiment owns it for the rest of the scope.)
  const std::vector<int32_t> links = info->gateway_uplink_edge;

  WorkloadExperiment exp(std::move(topology), ScenarioWorkloadParams(cfg));
  if (churn_name == "leaf") {
    exp.SetChurnModel(std::make_shared<LeafFailureChurn>(std::max(1, cfg.num_nodes / 10),
                                                         outage_at));
  } else if (churn_name == "gateway") {
    exp.SetChurnModel(std::make_shared<CorrelatedFailureChurn>(
        CorrelatedFailureChurn::Scope::kGatewayRouter, outage_at));
  } else if (churn_name != "none") {
    exp.SetChurnModel(std::make_shared<CorrelatedFailureChurn>(
        CorrelatedFailureChurn::Scope::kStubDomain, outage_at));
  }

  std::vector<double> sample_sec;
  std::vector<std::vector<double>> sample_bps;
  StartInteriorLinkSampling(exp.net(), links, SecToSim(1.0), SecToSim(1.0), &sample_sec,
                            &sample_bps);

  SessionSpec session;
  session.protocol = opts.system.value_or("bullet-prime");
  session.source = 0;
  session.seed = cfg.seed;
  session.file.block_bytes = cfg.block_bytes;
  session.file.num_blocks = FileBlocks(cfg.file_mb, cfg.block_bytes);
  session.file.encoded = cfg.force_encoded;
  exp.AddSession(session);
  const WorkloadResult wl = exp.Run();

  // Aggregate utilization over *surviving* stubs' uplinks, so the dead
  // region's zeroed link doesn't masquerade as a protocol-level dip.
  std::set<int> failed_stubs;
  for (const ChurnEvent& ev : wl.churn_events) {
    failed_stubs.insert(info->stub_domain_of_router(routed->attach(ev.node)));
  }
  std::vector<double> survivor_mbps(sample_sec.size(), 0.0);
  for (size_t t = 0; t < sample_sec.size(); ++t) {
    for (size_t s = 0; s < links.size(); ++s) {
      if (failed_stubs.count(static_cast<int>(s)) == 0) {
        survivor_mbps[t] += sample_bps[t][s] / 1e6;
      }
    }
  }

  // Three-phase read of the timeline: steady state just before the outage, the
  // dip right after (in-flight transfers from the dead region vanish), and the
  // best level reached once re-peering refills the shared links.
  const double outage_sec = SimToSec(outage_at);
  double util_pre = 0.0, util_post = -1.0, util_recovered = 0.0;
  int pre_n = 0;
  for (size_t t = 0; t < sample_sec.size(); ++t) {
    const double at = sample_sec[t];
    if (at < outage_sec && at >= outage_sec - 3.0) {
      util_pre += survivor_mbps[t];
      ++pre_n;
    } else if (at >= outage_sec && at < outage_sec + 3.0) {
      util_post = util_post < 0.0 ? survivor_mbps[t] : std::min(util_post, survivor_mbps[t]);
    } else if (at >= outage_sec + 3.0) {
      util_recovered = std::max(util_recovered, survivor_mbps[t]);
    }
  }
  if (pre_n > 0) {
    util_pre /= pre_n;
  }

  ScenarioReport report(kScenarioName);
  report.AddCompletion(ToScenarioResult(wl.sessions.front(), wl));
  report.AddSeries("SurvivorGatewayMbps", survivor_mbps);
  report.AddScalar("outage_at_s", outage_sec);
  report.AddScalar("failed_nodes", static_cast<double>(wl.churn_events.size()));
  report.AddScalar("failed_stub_domains", static_cast<double>(failed_stubs.size()));
  report.AddScalar("surviving_stub_domains",
                   static_cast<double>(info->num_stub_domains - failed_stubs.size()));
  report.AddScalar("util_pre_mbps", util_pre);
  report.AddScalar("util_post_outage_mbps", std::max(util_post, 0.0));
  report.AddScalar("util_recovered_mbps", util_recovered);
  return report;
}

}  // namespace
}  // namespace bullet
