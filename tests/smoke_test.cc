// End-to-end smoke test: a small Bullet' swarm on the paper's mesh topology must
// deliver the full file to every node with bounded duplicate traffic.

#include <gtest/gtest.h>

#include "src/harness/workload.h"

namespace bullet {
namespace {

TEST(Smoke, BulletPrimeSmallMeshCompletes) {
  Rng topo_rng(42);
  MeshTopology::MeshParams mesh;
  mesh.num_nodes = 20;
  mesh.core_loss_max = 0.0;  // lossless for the smoke test
  MeshTopology topo = MeshTopology::FullMesh(mesh, topo_rng);

  WorkloadParams params;
  params.seed = 7;
  params.deadline = SecToSim(300.0);
  SessionSpec session;
  session.protocol = "bullet-prime";
  session.seed = params.seed;
  session.file.block_bytes = 16 * 1024;
  session.file.num_blocks = 128;  // 2 MB

  WorkloadExperiment exp(std::move(topo), params);
  exp.AddSession(session);
  exp.Run();
  const RunMetrics& metrics = exp.session_metrics(0);

  EXPECT_EQ(metrics.completed(), 19);
  const auto times = metrics.CompletionSeconds(session.source);
  ASSERT_EQ(times.size(), 19u);
  for (const double t : times) {
    EXPECT_GT(t, 2.0);    // can't beat the file transfer time
    EXPECT_LT(t, 300.0);  // and must finish before the deadline
  }
  EXPECT_LT(metrics.DuplicateFraction(), 0.05);
}

}  // namespace
}  // namespace bullet
