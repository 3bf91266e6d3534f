// Quickstart: disseminate a file from one source to 99 receivers with Bullet' on the
// paper's emulated topology (Section 4.1) and print the completion-time CDF.
//
// Usage: quickstart [num_nodes] [file_mb] [loss_max_percent]

#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "src/common/cdf.h"
#include "src/harness/scenarios.h"

int main(int argc, char** argv) {
  const int num_nodes = argc > 1 ? std::atoi(argv[1]) : 100;
  const double file_mb = argc > 2 ? std::atof(argv[2]) : 10.0;
  const double loss_max = argc > 3 ? std::atof(argv[3]) / 100.0 : 0.03;

  bullet::Rng topo_rng(2026);
  bullet::MeshTopology::MeshParams mesh;
  mesh.num_nodes = num_nodes;
  mesh.core_loss_max = loss_max;
  bullet::MeshTopology topo = bullet::MeshTopology::FullMesh(mesh, topo_rng);

  bullet::WorkloadParams params;
  params.seed = 11;
  params.deadline = bullet::SecToSim(3600.0);
  bullet::SessionSpec session;
  session.protocol = "bullet-prime";
  session.seed = params.seed;
  session.file.block_bytes = 16 * 1024;
  session.file.num_blocks = bullet::FileBlocks(file_mb, session.file.block_bytes);

  std::printf("bullet' quickstart: %d nodes, %.1f MB file (%u blocks), loss 0-%.1f%%\n", num_nodes,
              file_mb, session.file.num_blocks, loss_max * 100.0);

  bullet::WorkloadExperiment exp(std::move(topo), params);
  exp.AddSession(session);
  exp.Run();
  const bullet::RunMetrics& metrics = exp.session_metrics(0);

  bullet::CdfSeries series;
  series.name = "bullet_prime download time (s)";
  series.samples = metrics.CompletionSeconds(session.source);
  std::printf("completed: %d/%d receivers, duplicate data: %.2f%%, control overhead: %.2f%%\n",
              metrics.completed(), num_nodes - 1, metrics.DuplicateFraction() * 100.0,
              metrics.ControlOverheadFraction() * 100.0);
  bullet::PrintSummaryTable(std::cout, {series});
  bullet::PrintCdf(std::cout, {series}, 10);
  return 0;
}
