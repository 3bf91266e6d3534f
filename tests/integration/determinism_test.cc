// Simulation-determinism layer: golden checks that the simulator core is
// exactly reproducible.
//
//  * Two in-process runs of the Fig. 4 static-mesh scenario (nodes=20, same
//    seed) must serialize to byte-identical metrics.
//  * A scripted network-level scenario (closes, a node failure, access and
//    dynamics-driven capacity changes) must replay the identical delivery
//    timeline.
//  * All of the above hold on the routed transit-stub topology too, where the
//    script's churn and periodic bandwidth halving land on genuinely shared
//    interior links (lossy transit tier, so the delivery RNG stream is
//    exercised along multi-hop routes).
//
// The allocator oracle rides on these runs: checked builds (BULLET_SANITIZE=ON)
// hold every quantum's cached flows and rates to a full recompute with the
// stateless reference allocator and abort on the first bit that differs (see
// network.h), so each run below is also a flow-for-flow comparison against
// the full recompute at every quantum.
//
// Run standalone with `ctest -L invariants`.

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/harness/churn.h"
#include "src/harness/scenario_runner.h"
#include "src/harness/scenarios.h"
#include "src/harness/workload.h"
#include "src/harness/workload_gen.h"
#include "src/sim/dynamics.h"
#include "src/sim/network.h"

namespace bullet {
namespace {

ScenarioConfig Fig04Config() {
  // Mirrors bench_fig04_overall_static.cc at nodes=20 with a test-sized file.
  ScenarioConfig cfg;
  cfg.topo = ScenarioConfig::Topo::kMesh;
  cfg.num_nodes = 20;
  cfg.file_mb = 5.0;
  cfg.block_bytes = 16 * 1024;
  cfg.seed = 401;
  return cfg;
}

std::string Serialize(const ScenarioResult& result) {
  ScenarioReport report("determinism");
  report.AddCompletion(result);
  std::ostringstream os;
  WriteReportJson(os, report, ScenarioOptions{});
  return os.str();
}

std::string SerializedRun(const ScenarioConfig& cfg) {
  return Serialize(RunScenario("bullet-prime", cfg));
}

TEST(Determinism, Fig04RepeatedRunsSerializeIdentically) {
  const ScenarioConfig cfg = Fig04Config();
  const std::string first = SerializedRun(cfg);
  const std::string second = SerializedRun(cfg);
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

// --- scripted network-level comparison ---

struct ScriptMsg : Message {
  int id;
  explicit ScriptMsg(int i, int64_t bytes) : id(i) {
    type = 1;
    wire_bytes = bytes;
  }
};

class TimelineRecorder : public NetHandler {
 public:
  explicit TimelineRecorder(Network* net) : net_(net) {}
  void OnConnUp(ConnId conn, NodeId peer, bool initiator) override {
    Record("up", conn, peer, initiator ? 1 : 0);
  }
  void OnConnDown(ConnId conn, NodeId peer) override { Record("down", conn, peer, 0); }
  void OnMessage(ConnId conn, NodeId from, std::unique_ptr<Message> msg) override {
    Record("msg", conn, from, static_cast<ScriptMsg&>(*msg).id);
  }

  std::vector<std::string> events;

 private:
  void Record(const char* kind, ConnId conn, NodeId peer, int extra) {
    std::ostringstream os;
    os << net_->now() << " " << kind << " c" << conn << " p" << peer << " x" << extra;
    events.push_back(os.str());
  }
  Network* net_;
};

std::unique_ptr<Topology> ScriptTopology() {
  Rng rng(99);
  // Lossy mesh so the delivery-time RNG stream is exercised too.
  MeshTopology::MeshParams mesh;
  mesh.num_nodes = 6;
  mesh.core_loss_min = 0.0;
  mesh.core_loss_max = 0.02;
  return std::make_unique<MeshTopology>(MeshTopology::FullMesh(mesh, rng));
}

std::unique_ptr<Topology> RoutedScriptTopology() {
  Rng rng(98);
  // Small lossy transit-stub graph: 6 overlay nodes over 12 routers, so the
  // script's flows cross shared gateway and transit links.
  RoutedTopology::TransitStubParams params;
  params.num_nodes = 6;
  params.transit_domains = 2;
  params.routers_per_transit = 2;
  params.stub_domains_per_transit_router = 1;
  params.routers_per_stub = 2;
  params.transit_stub_bps = 3e6;  // shared bottleneck below the access rate
  params.transit_loss_max = 0.02;
  return std::make_unique<RoutedTopology>(RoutedTopology::TransitStub(params, rng));
}

// A fixed traffic script: connects, staggered sends (several per quantum,
// some idle gaps), a mid-run close, a node failure, and periodic correlated
// bandwidth halving. Three more inputs aim at the incremental tick's
// bookkeeping: many mostly idle connections whose closes move busy ones to
// earlier open-list positions in quanta where other directions go busy or
// idle; an access-link capacity change on a node that is idle at the time and
// sends later; and one on the uplink of a busy flow. Returns every handler
// event of every node, in order.
std::vector<std::string> RunScript(std::unique_ptr<Topology> topo = ScriptTopology()) {
  Network net(std::move(topo), NetworkConfig{}, 4242);
  std::vector<std::unique_ptr<TimelineRecorder>> handlers;
  for (NodeId n = 0; n < 6; ++n) {
    handlers.push_back(std::make_unique<TimelineRecorder>(&net));
    net.SetHandler(n, handlers.back().get());
  }
  BandwidthDynamicsParams dyn;
  dyn.period = SecToSim(2.0);
  StartPeriodicBandwidthChanges(net, dyn);

  const ConnId c01 = net.Connect(0, 1);
  const ConnId c02 = net.Connect(0, 2);
  const ConnId c12 = net.Connect(1, 2);
  const ConnId c34 = net.Connect(3, 4);
  const ConnId c53 = net.Connect(5, 3);
  const ConnId c05 = net.Connect(0, 5);
  // Spare connections among nodes 0-4, listed after the ones above, so the
  // swap-with-back compaction moves the last of them into closed slots.
  struct Spare {
    ConnId id;
    NodeId end[2];
  };
  std::vector<Spare> spares;
  for (int k = 0; k < 24; ++k) {
    const NodeId from = k % 5;
    const NodeId to = (k % 5 + 1 + (k / 5) % 4) % 5;
    spares.push_back(Spare{net.Connect(from, to), {from, to}});
  }
  int next_id = 0;
  for (int j = 0; j < 8; ++j) {
    net.queue().Schedule(SecToSim(0.85) + j * SecToSim(0.4) + MsToSim(4), [&, j] {
      // A back entry goes busy while an early entry closes, so the next
      // compaction moves a busy connection forward; a short message on a third
      // spare goes busy now and idle within a few quanta.
      const Spare& back = spares[static_cast<size_t>(23 - j)];
      net.Send(back.id, back.end[j % 2], std::make_unique<ScriptMsg>(next_id++, 40 * 1024));
      const Spare& brief = spares[static_cast<size_t>(8 + j)];
      net.Send(brief.id, brief.end[0], std::make_unique<ScriptMsg>(next_id++, 2 * 1024));
      net.Close(spares[static_cast<size_t>(j)].id);
      if (j % 2 == 1) {
        // Two closes in one quantum, one of a connection that may still be busy.
        net.Close(spares[static_cast<size_t>(8 + j - 1)].id);
      }
    });
  }
  // Node 5 sends once, idles while its access links change, then sends again.
  net.queue().Schedule(SecToSim(0.5) + MsToSim(2), [&] {
    net.Send(c53, 5, std::make_unique<ScriptMsg>(next_id++, 32 * 1024));
    net.Send(c05, 0, std::make_unique<ScriptMsg>(next_id++, 16 * 1024));
  });
  net.queue().Schedule(SecToSim(2.45) + MsToSim(5), [&] {
    net.topology().uplink(5).bandwidth_bps = 0.1e6;
    net.topology().downlink(5).bandwidth_bps = 0.08e6;
  });
  net.queue().Schedule(SecToSim(2.9) + MsToSim(6), [&] {
    net.Send(c53, 5, std::make_unique<ScriptMsg>(next_id++, 48 * 1024));
    net.Send(c05, 0, std::make_unique<ScriptMsg>(next_id++, 32 * 1024));
  });
  // Node 0's uplink narrows under the busy c01/c02 flows of the last burst.
  net.queue().Schedule(SecToSim(6.1) + MsToSim(2),
                       [&] { net.topology().uplink(0).bandwidth_bps = 0.15e6; });
  for (int burst = 0; burst < 6; ++burst) {
    net.queue().Schedule(SecToSim(0.3) + burst * SecToSim(1.1) + MsToSim(3), [&, burst] {
      net.Send(c01, 0, std::make_unique<ScriptMsg>(next_id++, 200 * 1024));
      net.Send(c02, 0, std::make_unique<ScriptMsg>(next_id++, 64 * 1024));
      if (burst % 2 == 0) {
        net.Send(c12, 2, std::make_unique<ScriptMsg>(next_id++, 16 * 1024));
        net.Send(c34, 3, std::make_unique<ScriptMsg>(next_id++, 512 * 1024));
      }
    });
  }
  net.queue().Schedule(SecToSim(3.7) + MsToSim(1), [&] { net.Close(c12); });
  net.queue().Schedule(SecToSim(5.2) + MsToSim(7), [&] { net.FailNode(4); });
  net.Run(SecToSim(12.0));

  std::vector<std::string> all;
  for (auto& h : handlers) {
    for (auto& e : h->events) {
      all.push_back(std::move(e));
    }
  }
  return all;
}

TEST(Determinism, ScriptRepeatedRunsIdentical) {
  const std::vector<std::string> a = RunScript();
  const std::vector<std::string> b = RunScript();
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

// --- routed transit-stub goldens ---

ScenarioConfig TransitStubConfig() {
  ScenarioConfig cfg;
  cfg.topo = ScenarioConfig::Topo::kTransitStub;
  cfg.num_nodes = 18;
  cfg.file_mb = 2.0;
  cfg.block_bytes = 16 * 1024;
  cfg.seed = 1702;
  return cfg;
}

TEST(Determinism, TransitStubRepeatedRunsSerializeIdentically) {
  const ScenarioConfig cfg = TransitStubConfig();
  const ScenarioResult first = RunScenario("bullet-prime", cfg);
  const std::string serialized = Serialize(first);
  EXPECT_FALSE(serialized.empty());
  EXPECT_EQ(SerializedRun(cfg), serialized);
  // The routed net must actually exercise shared links, or this golden is
  // testing nothing new over the mesh variant above.
  EXPECT_GE(first.max_shared_link_flows, 2);
}

TEST(Determinism, TransitStubScriptRepeatedRunsIdentical) {
  // Churn (FailNode), a close, and periodic correlated bandwidth halving on
  // shared interior links.
  const std::vector<std::string> a = RunScript(RoutedScriptTopology());
  const std::vector<std::string> b = RunScript(RoutedScriptTopology());
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

// --- session-workload goldens (staggered joins + churn) ---

// A flash-crowd-with-churn workload: half the receivers join at t=12 s, and
// two control-tree leaves are killed mid-run, so the session can never fully
// complete and the run ends at the deadline. Exercises event-queue-driven
// joins, the staged tree, session-scoped completion accounting and FailNode
// racing in-flight joins/deliveries — all of it must be exactly reproducible.
WorkloadResult RunLateJoinChurnWorkload() {
  ScenarioConfig cfg;
  cfg.topo = ScenarioConfig::Topo::kMesh;
  cfg.num_nodes = 14;
  cfg.file_mb = 1.5;
  cfg.seed = 1805;

  WorkloadParams params;
  params.seed = cfg.seed;
  params.deadline = SecToSim(150.0);
  WorkloadExperiment exp(BuildScenarioTopology(cfg), params);

  SessionSpec spec;
  spec.protocol = "bullet-prime";
  spec.file.block_bytes = cfg.block_bytes;
  spec.file.num_blocks = FileBlocks(cfg.file_mb, cfg.block_bytes);
  spec.seed = cfg.seed;
  for (NodeId n = 0; n < cfg.num_nodes; ++n) {
    spec.members.push_back(n);
    spec.join_offsets.push_back(n >= 7 ? SecToSim(12.0) : 0);
  }
  exp.AddSession(spec);

  Rng churn_rng(777);
  ChurnPlan plan = PlanLeafFailures(exp.session_tree(0), /*source=*/0, /*count=*/2, churn_rng);
  plan.first_kill = SecToSim(15.0);
  ScheduleChurn(exp.net(), plan);
  return exp.Run();
}

std::string SerializeWorkload(const WorkloadResult& result) {
  ScenarioReport report("workload_determinism");
  for (const SessionResult& session : result.sessions) {
    report.AddCompletion(session.name, ToScenarioResult(session, result));
    report.AddSeries(session.name + " download", session.download_sec);
  }
  report.AddScalar("sessions_completed", result.sessions_completed);
  std::ostringstream os;
  WriteReportJson(os, report, ScenarioOptions{});
  return os.str();
}

TEST(Determinism, LateJoinChurnWorkloadRepeatedRunsSerializeIdentically) {
  const WorkloadResult first = RunLateJoinChurnWorkload();
  const std::string serialized = SerializeWorkload(first);
  EXPECT_FALSE(serialized.empty());
  EXPECT_EQ(SerializeWorkload(RunLateJoinChurnWorkload()), serialized);
  // The killed leaves keep the session from completing: the deadline, not a
  // session stop, ended the run.
  ASSERT_EQ(first.sessions.size(), 1u);
  EXPECT_LT(first.sessions[0].completed, first.sessions[0].receivers);
  EXPECT_EQ(first.sessions_completed, 0);
}

// The full generator stack — diurnal arrivals, Pareto lifetimes with seeder
// departure, DSL access-link cohorts, and a correlated stub outage — must be
// exactly reproducible: two in-process runs of the same spec serialize to the
// same bytes, including the drawn churn schedule.
TEST(Determinism, GeneratorDrivenChurnWorkloadSerializesIdentically) {
  const auto run = [] {
    ScenarioConfig cfg;
    cfg.topo = ScenarioConfig::Topo::kTransitStub;
    cfg.num_nodes = 18;
    cfg.file_mb = 1.0;
    cfg.block_bytes = 16 * 1024;
    cfg.seed = 2203;
    WorkloadSpec workload;
    workload.access_links = std::make_shared<DslAccessLinks>(0.25, 4e6, 1e6);
    workload.churn = std::make_shared<CorrelatedFailureChurn>(
        CorrelatedFailureChurn::Scope::kStubDomain, SecToSim(4.0));
    SessionSpec session;
    session.protocol = "bullet-prime";
    session.source = 0;
    session.arrivals = std::make_shared<DiurnalArrivals>(2.0, 0.8, SecToSim(20.0));
    session.lifetimes =
        std::make_shared<ParetoLifetime>(1.5, SecToSim(30.0), /*depart_after_completion=*/true,
                                         /*linger=*/SecToSim(5.0));
    workload.sessions.push_back(std::move(session));
    const WorkloadResult wl = RunScenarioWorkload(cfg, workload);

    std::ostringstream os;
    os << wl.sessions_completed << '|' << wl.total_departures << '|' << wl.max_shared_link_flows;
    for (const ChurnEvent& ev : wl.churn_events) {
      os << '|' << ev.node << '@' << ev.at;
    }
    const SessionResult& r = wl.sessions[0];
    os << '|' << r.completed << '|' << r.departed << '|' << r.departed_incomplete;
    for (const double t : r.completion_sec) {
      os << '|' << t;
    }
    return os.str();
  };
  const std::string first = run();
  const std::string second = run();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
  // The spec actually produced dynamics, or this golden pins a static run.
  EXPECT_NE(first.find('@'), std::string::npos);
}

}  // namespace
}  // namespace bullet
