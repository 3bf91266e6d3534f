// Scenario builders reproducing the paper's experimental setups (Section 4.1), shared
// by the benchmarks, the integration tests and the examples. Every scenario run is
// built by BuildScenarioExperiment; RunScenario is its single-session shape.

#ifndef SRC_HARNESS_SCENARIOS_H_
#define SRC_HARNESS_SCENARIOS_H_

#include <memory>
#include <optional>
#include <string>

#include "src/core/config.h"
#include "src/harness/workload.h"
#include "src/sim/dynamics.h"

namespace bullet {

struct ScenarioConfig {
  enum class Topo {
    kMesh,         // Section 4.1: 6 Mbps access, 2 Mbps core, 5-200 ms, random loss
    kConstrained,  // Section 4.4: ample core, 800 Kbps access
    kUniform,      // Section 4.5: uniform 10 Mbps / 100 ms links
    kWideArea,     // Section 4.7: synthetic PlanetLab stand-in
    kTransitStub,  // Routed sparse transit-stub graph with shared interior links
  };

  Topo topo = Topo::kMesh;
  // Transit-stub shape when topo == kTransitStub; num_nodes and the loss range
  // below override the corresponding fields at build time.
  RoutedTopology::TransitStubParams transit_stub;
  int num_nodes = 100;
  double file_mb = 100.0;
  int64_t block_bytes = 16 * 1024;
  double loss_min = 0.0;
  double loss_max = 0.03;
  bool dynamic_bw = false;  // the Section 4.1 periodic correlated bandwidth halving
  uint64_t seed = 1;
  SimTime deadline = SecToSim(7200.0);
  bool record_arrivals = false;
  // Network knobs, handed to the Network unchanged; perf_core_scale sets a
  // finer quantum than the paper's 10 ms.
  NetworkConfig net;
  // Streaming (playback-deadline) sessions requested via --stream-bitrate-mbps
  // / --stream-window-blocks (ApplyScenarioOptions fills it). When set,
  // BuildScenarioExperiment turns every session of a system that streams
  // (SystemInfo::streams) and does not already carry a StreamingSpec into a
  // streaming session with this one; empty keeps sessions in bulk mode.
  std::optional<StreamingSpec> streaming;
};

// Builds the topology for `cfg` (deterministic in cfg.seed).
std::unique_ptr<Topology> BuildScenarioTopology(const ScenarioConfig& cfg);

// Blocks in a file of `file_mb` MB (2^20 bytes) at `block_bytes` per block:
// truncated, but never fewer than one, so a file smaller than a block still
// transfers.
uint32_t FileBlocks(double file_mb, int64_t block_bytes);

// Parses a --topology CLI value ("mesh" or "transit-stub") onto `*topo`;
// returns false on anything else.
bool ParseTopologyName(const std::string& name, ScenarioConfig::Topo* topo);

// Builds a workload (N sessions with join schedules) over the scenario's
// topology, dynamics and network knobs, ready to Run(). Sessions whose
// FileParams have num_blocks == 0 inherit the scenario file sizing (FileBlocks
// of cfg.file_mb and cfg.block_bytes), and sessions of a system that streams
// inherit cfg.streaming unless they carry their own StreamingSpec, and the
// workload's `churn` model is installed on the experiment. The experiment
// lives on the heap because its sessions' callbacks point at it; callers reach
// its network, trees and metrics before or after Run().
std::unique_ptr<WorkloadExperiment> BuildScenarioExperiment(const ScenarioConfig& cfg,
                                                            const WorkloadSpec& workload);

// Runs one system through the scenario as a single all-nodes zero-offset
// session seeded with cfg.seed. `protocol` is a kSystems key; `bp` becomes the
// session's SessionSpec::bullet_prime, which only Bullet' reads. Unknown keys
// abort (callers reaching this from the CLI validate against kSystems first).
WorkloadResult RunScenario(const std::string& protocol, const ScenarioConfig& cfg,
                           const BulletPrimeConfig& bp = BulletPrimeConfig{});

// The protocol for scenarios whose sessions cover member *subsets*: the
// requested --system key when set, except that a system which requires
// spanning every node (SystemInfo::requires_full_span, e.g. splitstream)
// cannot apply, so it is ignored like any other inapplicable override and
// `fallback` runs instead.
std::string ScenarioSubsetSystemOr(const std::optional<std::string>& system,
                                   const std::string& fallback);

// --- Fig. 4 reference lines ---

// Download time were the access link the only constraint and protocols free.
double OptimalAccessLinkSeconds(double file_mb, double access_bps);
// Best plausible time for a MACEDON/TCP system: protocol headers, TCP slow start,
// and the initial tree/RanSub startup delay before the mesh forms.
double TcpFeasibleSeconds(double file_mb, double access_bps, double startup_sec);

}  // namespace bullet

#endif  // SRC_HARNESS_SCENARIOS_H_
