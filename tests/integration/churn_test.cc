// Resilience under node failures: the mesh must absorb peer deaths with bounded
// slowdown — the paper's 1/n argument for mesh dissemination (Section 1).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <vector>

#include "src/common/stats.h"
#include "src/harness/churn.h"
#include "src/harness/workload.h"
#include "src/sim/dynamics.h"

namespace bullet {
namespace {

struct ChurnRun {
  RunMetrics metrics{0};
  int victims = 0;
};

ChurnRun RunWithChurn(int nodes, int kills, uint64_t seed) {
  Rng topo_rng(seed);
  MeshTopology::MeshParams mesh;
  mesh.num_nodes = nodes;
  mesh.core_loss_max = 0.0;
  MeshTopology topo = MeshTopology::FullMesh(mesh, topo_rng);
  WorkloadParams params;
  params.seed = seed;
  params.deadline = SecToSim(1800.0);
  SessionSpec session;
  session.protocol = "bullet-prime";
  session.seed = seed;
  session.file.num_blocks = 640;  // 10 MB
  WorkloadExperiment exp(std::move(topo), params);
  exp.AddSession(session);
  if (kills > 0) {
    exp.SetChurnModel(std::make_shared<LeafFailureChurn>(kills));
  }

  ChurnRun run;
  run.victims = static_cast<int>(exp.Run().churn_events.size());
  run.metrics = exp.session_metrics(0);
  return run;
}

TEST(Churn, FailNodeCutsConnections) {
  Rng rng(3);
  MeshTopology topo = MeshTopology::ConstrainedAccess(4, rng);
  Network net(std::move(topo), NetworkConfig{}, 3);
  const ConnId conn = net.Connect(0, 1);
  net.Run(SecToSim(1.0));
  ASSERT_TRUE(net.IsOpen(conn));
  net.FailNode(1);
  EXPECT_FALSE(net.IsOpen(conn));
  EXPECT_TRUE(net.IsNodeFailed(1));
  EXPECT_EQ(net.Connect(0, 1), -1);
  EXPECT_EQ(net.Connect(1, 2), -1);
  net.FailNode(1);  // idempotent
  EXPECT_EQ(net.Connect(2, 3) >= 0, true);
}

TEST(Churn, PlanTargetsOnlyLeaves) {
  // LeafFailureChurn's schedule: per session, up to `count` distinct member
  // leaves of the session's control tree (never its source, capped at the
  // leaf count), dying one interval apart on a clock shared across sessions.
  // The two sessions split one 40-node id space, so every non-member is a
  // childless node of each tree and must not be drawn.
  constexpr int kNodes = 40;
  std::vector<NodeId> evens;
  for (NodeId n = 0; n < kNodes; n += 2) {
    evens.push_back(n);
  }
  const std::vector<NodeId> few = {1, 3, 5};
  Rng tree_rng(5);
  const ControlTree wide = ControlTree::RandomStaged(
      kNodes, /*root=*/0, {std::vector<NodeId>(evens.begin() + 1, evens.end())}, 4, tree_rng);
  const ControlTree narrow = ControlTree::RandomStaged(kNodes, /*root=*/1, {{3, 5}}, 4, tree_rng);
  ChurnContext ctx;
  ctx.sessions.push_back({&wide, /*source=*/0, &evens});
  ctx.sessions.push_back({&narrow, /*source=*/1, &few});

  constexpr int kCount = 5;
  const SimTime first_kill = SecToSim(15.0);
  const SimTime interval = SecToSim(10.0);
  Rng churn_rng(6);
  const std::vector<ChurnEvent> events =
      LeafFailureChurn(kCount, first_kill, interval).Schedule(ctx, churn_rng);

  size_t k = 0;
  std::set<NodeId> victims;
  for (const ChurnContext::SessionView& s : ctx.sessions) {
    std::set<NodeId> leaves;
    for (const NodeId m : *s.members) {
      if (m != s.source && s.tree->children[static_cast<size_t>(m)].empty()) {
        leaves.insert(m);
      }
    }
    const size_t expected = std::min<size_t>(kCount, leaves.size());
    for (size_t i = 0; i < expected; ++i, ++k) {
      ASSERT_LT(k, events.size());
      EXPECT_TRUE(leaves.count(events[k].node) == 1) << "victim " << events[k].node;
      EXPECT_NE(events[k].node, s.source);
      EXPECT_EQ(events[k].at, first_kill + static_cast<SimTime>(k) * interval);
      EXPECT_TRUE(victims.insert(events[k].node).second) << "victim drawn twice";
    }
  }
  EXPECT_EQ(events.size(), k);
  // The wide session has a leaf for every kill; the narrow session's two
  // leaves cap its draw.
  EXPECT_EQ(k, static_cast<size_t>(kCount) + 2);
}

TEST(Churn, SurvivorsCompleteDespiteFailures) {
  // Kill 6 of 29 receivers mid-download; every survivor must still finish.
  const ChurnRun churned = RunWithChurn(30, 6, 77);
  ASSERT_EQ(churned.victims, 6);
  int survivors_done = 0;
  for (NodeId n = 1; n < 30; ++n) {
    if (churned.metrics.node(n).completion >= 0) {
      ++survivors_done;
    }
  }
  EXPECT_GE(survivors_done, 29 - 6);
}

struct BulkMsg : Message {
  explicit BulkMsg(int64_t bytes) { wire_bytes = bytes; }
};

class DownCounter : public NetHandler {
 public:
  void OnConnDown(ConnId /*conn*/, NodeId /*peer*/) override { ++downs; }
  void OnMessage(ConnId /*conn*/, NodeId /*from*/, std::unique_ptr<Message> /*msg*/) override {
    ++messages;
  }
  int downs = 0;
  int messages = 0;
};

TEST(Churn, FailNodeRacesPendingDeliveries) {
  // Fail a node while messages are both queued and in flight toward it; the
  // in-flight deliveries must be dropped cleanly (no delivery after the
  // failure, exactly one OnConnDown per surviving endpoint, no crash).
  Rng rng(11);
  MeshTopology topo = MeshTopology::ConstrainedAccess(4, rng);
  Network net(std::move(topo), NetworkConfig{}, 11);
  DownCounter h0;
  DownCounter h1;
  net.SetHandler(0, &h0);
  net.SetHandler(1, &h1);
  const ConnId conn = net.Connect(0, 1);
  net.Run(SecToSim(1.0));
  for (int i = 0; i < 20; ++i) {
    net.Send(conn, 0, std::make_unique<BulkMsg>(64 * 1024));
  }
  net.Run(SecToSim(3.0));  // some deliveries pending, some queued
  EXPECT_GT(h1.messages, 0);
  const int delivered_before_failure = h1.messages;
  net.FailNode(1);
  net.Run(SecToSim(30.0));
  EXPECT_EQ(h1.messages, delivered_before_failure);
  EXPECT_FALSE(net.IsOpen(conn));
  EXPECT_EQ(h0.downs, 1);
  EXPECT_EQ(h1.downs, 1);
}

TEST(Churn, DynamicsOnFailedNodeLinksIsNoOp) {
  // Periodic correlated bandwidth halving racing a node failure: firings that
  // land on a failed node's links must leave them untouched (they carry no
  // flows, and Connect() toward the node is refused forever), while live links
  // keep degrading.
  MeshTopology topo(4);
  for (NodeId n = 0; n < 4; ++n) {
    topo.uplink(n) = LinkParams{6e6, 0, 0.0};
    topo.downlink(n) = LinkParams{6e6, 0, 0.0};
    for (NodeId d = 0; d < 4; ++d) {
      topo.core(n, d) = LinkParams{2e6, MsToSim(1), 0.0};
    }
  }
  Network net(std::move(topo), NetworkConfig{}, 7);
  BandwidthDynamicsParams params;
  params.period = SecToSim(1.0);
  params.node_fraction = 1.0;
  params.sender_fraction = 1.0;
  StartPeriodicBandwidthChanges(net, params);
  net.queue().Schedule(MsToSim(500), [&net] { net.FailNode(1); });
  net.Run(SecToSim(3.5));  // failure at 0.5 s, then 3 firings

  EXPECT_TRUE(net.IsNodeFailed(1));
  for (NodeId s = 0; s < 4; ++s) {
    for (NodeId d = 0; d < 4; ++d) {
      if (s == d) {
        continue;
      }
      const double bw = net.topology().AsMesh()->core(s, d).bandwidth_bps;
      if (s == 1 || d == 1) {
        EXPECT_NEAR(bw, 2e6, 1.0) << "failed node's link " << s << "->" << d << " was degraded";
      } else {
        EXPECT_NEAR(bw, 2e6 / 8.0, 1.0) << "live link " << s << "->" << d;
      }
    }
  }
}

TEST(Churn, FailuresUnderBandwidthDynamicsStillComplete) {
  // Full protocol integration: leaf failures land mid-download while the
  // periodic halving keeps firing (including on the victims' links). Survivors
  // must still finish; nothing may crash.
  Rng topo_rng(21);
  MeshTopology::MeshParams mesh;
  mesh.num_nodes = 16;
  mesh.core_loss_max = 0.0;
  MeshTopology topo = MeshTopology::FullMesh(mesh, topo_rng);
  WorkloadParams params;
  params.seed = 21;
  params.deadline = SecToSim(1800.0);
  SessionSpec session;
  session.protocol = "bullet-prime";
  session.seed = 21;
  session.file.num_blocks = 320;  // 5 MB
  WorkloadExperiment exp(std::move(topo), params);
  exp.AddSession(session);
  StartPeriodicBandwidthChanges(exp.net(), BandwidthDynamicsParams{});
  exp.SetChurnModel(std::make_shared<LeafFailureChurn>(3));

  ASSERT_EQ(exp.Run().churn_events.size(), 3u);
  const RunMetrics& metrics = exp.session_metrics(0);

  int survivors_done = 0;
  for (NodeId n = 1; n < 16; ++n) {
    if (metrics.node(n).completion >= 0) {
      ++survivors_done;
    }
  }
  EXPECT_GE(survivors_done, 15 - 3);
}

TEST(Churn, SlowdownIsBounded) {
  // The paper's 1/n argument: losing ~20% of peers costs far less than 2x.
  const ChurnRun baseline = RunWithChurn(30, 0, 78);
  const ChurnRun churned = RunWithChurn(30, 6, 78);
  const double base_p90 = Percentile(baseline.metrics.CompletionSeconds(0), 0.9);
  std::vector<double> survivor_times;
  for (NodeId n = 1; n < 30; ++n) {
    if (churned.metrics.node(n).completion >= 0) {
      survivor_times.push_back(SimToSec(churned.metrics.node(n).completion));
    }
  }
  ASSERT_GE(survivor_times.size(), 23u);
  EXPECT_LT(Percentile(survivor_times, 0.9), base_p90 * 1.6);
}

}  // namespace
}  // namespace bullet
