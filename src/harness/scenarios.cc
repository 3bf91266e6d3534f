#include "src/harness/scenarios.h"

#include <algorithm>
#include <memory>
#include <utility>

namespace bullet {

std::string ScenarioSubsetSystemOr(const std::optional<std::string>& system,
                                   const std::string& fallback) {
  if (!system) {
    return fallback;
  }
  const SystemInfo* info = FindSystem(*system);
  if (info == nullptr || info->requires_full_span) {
    return fallback;
  }
  return *system;
}

std::unique_ptr<Topology> BuildScenarioTopology(const ScenarioConfig& cfg) {
  Rng rng(cfg.seed ^ 0x74d3c2e1b5a69788ULL);
  switch (cfg.topo) {
    case ScenarioConfig::Topo::kMesh: {
      MeshTopology::MeshParams mesh;
      mesh.num_nodes = cfg.num_nodes;
      mesh.core_loss_min = cfg.loss_min;
      mesh.core_loss_max = cfg.loss_max;
      return std::make_unique<MeshTopology>(MeshTopology::FullMesh(mesh, rng));
    }
    case ScenarioConfig::Topo::kConstrained:
      return std::make_unique<MeshTopology>(MeshTopology::ConstrainedAccess(cfg.num_nodes, rng));
    case ScenarioConfig::Topo::kUniform:
      return std::make_unique<MeshTopology>(MeshTopology::Uniform(
          cfg.num_nodes, 10e6, MsToSim(100), cfg.loss_min, cfg.loss_max, rng));
    case ScenarioConfig::Topo::kWideArea:
      return std::make_unique<MeshTopology>(MeshTopology::WideArea(cfg.num_nodes, rng));
    case ScenarioConfig::Topo::kTransitStub: {
      RoutedTopology::TransitStubParams params = cfg.transit_stub;
      params.num_nodes = cfg.num_nodes;
      params.transit_loss_min = cfg.loss_min;
      params.transit_loss_max = cfg.loss_max;
      return std::make_unique<RoutedTopology>(RoutedTopology::TransitStub(params, rng));
    }
  }
  MeshTopology::MeshParams mesh;
  mesh.num_nodes = cfg.num_nodes;
  return std::make_unique<MeshTopology>(MeshTopology::FullMesh(mesh, rng));
}

bool ParseTopologyName(const std::string& name, ScenarioConfig::Topo* topo) {
  if (name == "mesh") {
    *topo = ScenarioConfig::Topo::kMesh;
    return true;
  }
  if (name == "transit-stub") {
    *topo = ScenarioConfig::Topo::kTransitStub;
    return true;
  }
  return false;
}

uint32_t FileBlocks(double file_mb, int64_t block_bytes) {
  const auto blocks =
      static_cast<uint32_t>(file_mb * 1024.0 * 1024.0 / static_cast<double>(block_bytes));
  return std::max<uint32_t>(blocks, 1);
}

std::unique_ptr<WorkloadExperiment> BuildScenarioExperiment(const ScenarioConfig& cfg,
                                                            const WorkloadSpec& workload) {
  WorkloadParams params;
  params.seed = cfg.seed;
  params.deadline = cfg.deadline;
  params.record_arrivals = cfg.record_arrivals;
  params.net = cfg.net;
  auto exp = std::make_unique<WorkloadExperiment>(BuildScenarioTopology(cfg), params);
  if (workload.churn != nullptr) {
    exp->SetChurnModel(workload.churn);
  }
  if (cfg.dynamic_bw) {
    StartPeriodicBandwidthChanges(exp->net(), BandwidthDynamicsParams{});
  }
  for (SessionSpec session : workload.sessions) {
    if (session.file.num_blocks == 0) {
      // Inherit the scenario's file sizing.
      session.file.block_bytes = cfg.block_bytes;
      session.file.num_blocks = FileBlocks(cfg.file_mb, cfg.block_bytes);
    }
    // The stream flags reach only systems that stream; legacy Bullet stays
    // a bulk session under them.
    const SystemInfo* system = FindSystem(session.protocol);
    if (!session.streaming.has_value() && system != nullptr && system->streams) {
      session.streaming = cfg.streaming;
    }
    exp->AddSession(session);
  }
  return exp;
}

WorkloadResult RunScenario(const std::string& protocol, const ScenarioConfig& cfg,
                           const BulletPrimeConfig& bp) {
  WorkloadSpec workload;
  SessionSpec session;
  session.protocol = protocol;
  session.source = 0;
  session.seed = cfg.seed;
  session.bullet_prime = bp;
  workload.sessions.push_back(std::move(session));
  return BuildScenarioExperiment(cfg, workload)->Run();
}

double OptimalAccessLinkSeconds(double file_mb, double access_bps) {
  return file_mb * 1024.0 * 1024.0 * 8.0 / access_bps;
}

double TcpFeasibleSeconds(double file_mb, double access_bps, double startup_sec) {
  // Protocol efficiency: TCP/IP header overhead on 1460-byte segments plus block
  // headers (~0.2%), and a sustained-utilization factor for congestion avoidance.
  constexpr double kHeaderEfficiency = 1460.0 / 1500.0;
  constexpr double kTcpUtilization = 0.95;
  const double goodput = access_bps * kHeaderEfficiency * kTcpUtilization;
  return startup_sec + file_mb * 1024.0 * 1024.0 * 8.0 / goodput;
}

}  // namespace bullet
