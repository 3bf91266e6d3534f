// Protocol-level tests of Bullet' running on the real emulator: source gating,
// fixed-window mode, post-completion behaviour, and waste bounds.

#include "src/core/bullet_prime.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "src/harness/workload.h"

namespace bullet {
namespace {

// A lossless mesh swarm running one all-nodes Bullet' session.
struct Swarm {
  std::unique_ptr<WorkloadExperiment> exp;
  std::vector<BulletPrime*> protos;  // indexed by node
  RunMetrics metrics{0};
};

Swarm RunSwarm(int nodes, const FileParams& file, const BulletPrimeConfig& config,
               double deadline_sec, uint64_t seed) {
  Rng topo_rng(seed);
  MeshTopology::MeshParams mesh;
  mesh.num_nodes = nodes;
  mesh.core_loss_max = 0.0;
  WorkloadParams params;
  params.seed = seed;
  params.deadline = SecToSim(deadline_sec);
  SessionSpec session;
  session.protocol = "bullet-prime";
  session.seed = seed;
  session.file = file;
  session.bullet_prime = config;
  Swarm swarm;
  swarm.exp = std::make_unique<WorkloadExperiment>(MeshTopology::FullMesh(mesh, topo_rng), params);
  swarm.exp->AddSession(session);
  swarm.exp->Run();
  swarm.metrics = swarm.exp->session_metrics(0);
  for (NodeId n = 0; n < nodes; ++n) {
    swarm.protos.push_back(static_cast<BulletPrime*>(swarm.exp->session_protocol(0, n)));
  }
  return swarm;
}

Swarm RunSwarm(int nodes, uint32_t blocks, const BulletPrimeConfig& config, double deadline_sec,
               uint64_t seed = 44) {
  FileParams file;
  file.num_blocks = blocks;
  return RunSwarm(nodes, file, config, deadline_sec, seed);
}

TEST(BulletPrimeProtocol, SourceHidesUntilFullPass) {
  // Stop mid-push: the source must not yet advertise (push_done false) and must have
  // no mesh senders of its own.
  BulletPrimeConfig config;
  Swarm swarm = RunSwarm(10, 512, config, /*deadline_sec=*/4.0);
  EXPECT_FALSE(swarm.protos[0]->push_done());
  EXPECT_EQ(swarm.protos[0]->num_senders(), 0);
}

TEST(BulletPrimeProtocol, SourcePushCompletesAndAdvertises) {
  BulletPrimeConfig config;
  Swarm swarm = RunSwarm(10, 64, config, /*deadline_sec=*/600.0);
  EXPECT_TRUE(swarm.protos[0]->push_done());
  EXPECT_EQ(swarm.metrics.completed(), 9);
}

TEST(BulletPrimeProtocol, CompletedNodesDropTheirSenders) {
  BulletPrimeConfig config;
  Swarm swarm = RunSwarm(12, 64, config, 600.0);
  ASSERT_EQ(swarm.metrics.completed(), 11);
  for (size_t n = 1; n < swarm.protos.size(); ++n) {
    EXPECT_EQ(swarm.protos[n]->num_senders(), 0) << "node " << n;
  }
}

TEST(BulletPrimeProtocol, FixedOutstandingStaysFixed) {
  BulletPrimeConfig config;
  config.dynamic_outstanding = false;
  config.fixed_outstanding = 4;
  Swarm swarm = RunSwarm(10, 96, config, 600.0);
  EXPECT_EQ(swarm.metrics.completed(), 9);
  // desired_ is never updated in fixed mode; every sender entry retains the fixed
  // window (senders close on completion, so probe a mid-run state instead).
  BulletPrimeConfig probe_config = config;
  Swarm mid = RunSwarm(10, 2048, probe_config, 8.0);
  bool saw_sender = false;
  for (auto* p : mid.protos) {
    for (const auto& d : p->DebugSenders()) {
      saw_sender = true;
      EXPECT_DOUBLE_EQ(d.desired, 4.0);
      EXPECT_LE(d.outstanding, 4);
    }
  }
  EXPECT_TRUE(saw_sender);
}

TEST(BulletPrimeProtocol, PeerCountsRespectHardBounds) {
  BulletPrimeConfig config;
  Swarm swarm = RunSwarm(30, 1024, config, 12.0);  // stop mid-download
  for (auto* p : swarm.protos) {
    EXPECT_LE(p->num_senders(), BulletPrime::kMaxPeers);
    EXPECT_LE(p->num_receivers(), BulletPrime::kMaxPeers);
    EXPECT_GE(p->max_senders(), BulletPrime::kMinPeers);
    EXPECT_LE(p->max_senders(), BulletPrime::kMaxPeers);
  }
}

TEST(BulletPrimeProtocol, NoDuplicateBlocksWithoutChurn) {
  // The request path (global requested-set + per-sender candidates) must never fetch
  // a block twice in a loss-free, churn-free run.
  BulletPrimeConfig config;
  Swarm swarm = RunSwarm(16, 128, config, 600.0);
  ASSERT_EQ(swarm.metrics.completed(), 15);
  for (NodeId n = 0; n < 16; ++n) {
    EXPECT_EQ(swarm.metrics.node(n).duplicate_blocks, 0) << "node " << n;
  }
}

TEST(BulletPrimeProtocol, EncodedModeUsesOverheadRule) {
  FileParams file;
  file.num_blocks = 100;
  file.encoded = true;
  const Swarm swarm = RunSwarm(10, file, BulletPrimeConfig{}, 900.0, /*seed=*/45);
  const std::vector<BulletPrime*>& protos = swarm.protos;
  const RunMetrics& metrics = swarm.metrics;
  ASSERT_EQ(metrics.completed(), 9);
  for (size_t n = 1; n < protos.size(); ++n) {
    // Complete at (1 + 4%) * n distinct encoded blocks. Tree children of the source
    // keep receiving pushed blocks after completing, so counts may exceed the
    // threshold but never undershoot it.
    EXPECT_GE(protos[n]->have().count(), 104u) << "node " << n;
    EXPECT_GE(metrics.node(static_cast<NodeId>(n)).completion, 0) << "node " << n;
  }
  // Non-children of the source stop pulling at exactly the completion threshold.
  bool checked_non_child = false;
  for (size_t n = 1; n < protos.size(); ++n) {
    const auto& kids = swarm.exp->session_tree(0).children[0];
    if (std::find(kids.begin(), kids.end(), static_cast<NodeId>(n)) == kids.end()) {
      EXPECT_EQ(protos[n]->have().count(), 104u) << "node " << n;
      checked_non_child = true;
    }
  }
  EXPECT_TRUE(checked_non_child);
}

}  // namespace
}  // namespace bullet
