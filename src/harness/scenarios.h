// Scenario builders reproducing the paper's experimental setups (Section 4.1), shared
// by the benchmarks, the integration tests and the examples. Each figure's bench is a
// thin wrapper over RunScenario with the right knobs.

#ifndef SRC_HARNESS_SCENARIOS_H_
#define SRC_HARNESS_SCENARIOS_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/core/config.h"
#include "src/harness/workload.h"
#include "src/sim/dynamics.h"

namespace bullet {

struct ScenarioConfig {
  enum class Topo {
    kMesh,         // Section 4.1: 6 Mbps access, 2 Mbps core, 5-200 ms, random loss
    kConstrained,  // Section 4.4: ample core, 800 Kbps access
    kUniform,      // Section 4.5: uniform links (bandwidth/latency below)
    kWideArea,     // Section 4.7: synthetic PlanetLab stand-in
    kTransitStub,  // Routed sparse transit-stub graph with shared interior links
  };

  Topo topo = Topo::kMesh;
  // Transit-stub shape when topo == kTransitStub; num_nodes and the loss range
  // above override the corresponding fields at build time.
  RoutedTopology::TransitStubParams transit_stub;
  int num_nodes = 100;
  double file_mb = 100.0;
  int64_t block_bytes = 16 * 1024;
  double loss_min = 0.0;
  double loss_max = 0.03;
  double uniform_bps = 10e6;
  SimTime uniform_delay = MsToSim(100);
  bool dynamic_bw = false;  // the Section 4.1 periodic correlated bandwidth halving
  uint64_t seed = 1;
  SimTime deadline = SecToSim(7200.0);
  bool record_arrivals = false;
  // Network knobs, handed to the Network unchanged; perf_core_scale sets a
  // finer quantum than the paper's 10 ms.
  NetworkConfig net;
  // Force encoded-stream methodology regardless of system (Bullet and SplitStream are
  // always treated as encoded with 4% overhead, per Section 4.2).
  bool force_encoded = false;
  // Streaming (playback-deadline) sessions requested via --stream-bitrate-mbps
  // / --stream-window-blocks (ApplyScenarioOptions fills it). When set,
  // RunScenarioWorkload turns every session that does not already carry a
  // StreamingSpec into a streaming session with this one; empty keeps
  // sessions in bulk mode.
  std::optional<StreamingSpec> streaming;
};

struct ScenarioResult {
  std::string name;
  std::vector<double> completion_sec;  // per receiver; incomplete nodes at deadline
  // Completion relative to each receiver's own join time (== completion_sec
  // for the legacy everyone-at-t0 shape); what a late joiner experiences.
  std::vector<double> download_sec;
  double duplicate_fraction = 0.0;
  double control_overhead = 0.0;
  int completed = 0;
  int receivers = 0;
  // Peak flows the allocator saw sharing one interior link (see
  // Network::max_interior_link_flows); > 1 only when pairs truly share links.
  int32_t max_shared_link_flows = 0;
  // Deterministic network-run counters (whole network, not per session: a
  // multi-session workload reports the same totals on every session's result).
  // Seed-reproducible; the perf gate normalizes them by wall time.
  uint64_t events_executed = 0;
  uint64_t allocator_epochs = 0;
  uint64_t sim_bytes_sent = 0;
  // End-of-run memory telemetry (deterministic byte counters; see
  // WorkloadResult). Zero on mesh topologies / protocols without arena state.
  uint64_t route_cache_bytes = 0;
  uint64_t path_pool_bytes = 0;
  uint64_t arena_peak_bytes = 0;
};

// Builds the topology for `cfg` (deterministic in cfg.seed).
std::unique_ptr<Topology> BuildScenarioTopology(const ScenarioConfig& cfg);

// The run-level knobs of `cfg` (seed, deadline, arrival recording, network).
WorkloadParams ScenarioWorkloadParams(const ScenarioConfig& cfg);

// Blocks in a file of `file_mb` MB (2^20 bytes) at `block_bytes` per block:
// truncated, but never fewer than one, so a file smaller than a block still
// transfers.
uint32_t FileBlocks(double file_mb, int64_t block_bytes);

// Parses a --topology CLI value ("mesh" or "transit-stub") onto `*topo`;
// returns false on anything else.
bool ParseTopologyName(const std::string& name, ScenarioConfig::Topo* topo);

// Runs one system through the scenario as a single all-nodes zero-offset
// session (the legacy shape). `protocol` is a ProtocolRegistry key; `bp`
// applies when it resolves to Bullet'. Unknown keys abort (callers reaching
// this from the CLI validate against the registry first).
//
// The enum overload RunScenario(System, ...) is gone along with the System
// enum itself — pass the registry key ("bullet-prime", "bullet", "bittorrent",
// "splitstream") directly.
ScenarioResult RunScenario(const std::string& protocol, const ScenarioConfig& cfg,
                           const BulletPrimeConfig& bp = BulletPrimeConfig{});

// The protocol for scenarios whose sessions cover member *subsets*: the
// requested --system key when set, except that a protocol which requires
// spanning every node (Entry::requires_full_span, e.g. splitstream) cannot
// apply, so it is ignored like any other inapplicable override and `fallback`
// runs instead.
std::string ScenarioSubsetSystemOr(const std::optional<std::string>& system,
                                   const std::string& fallback);

// Runs an arbitrary workload (N sessions with join schedules) over the
// scenario's topology, dynamics and network knobs. Sessions whose FileParams
// have num_blocks == 0 inherit the scenario file sizing (FileBlocks of
// cfg.file_mb and cfg.block_bytes); cfg.force_encoded applies to every
// session. Workload-level generators are honored here: `access_links` mutates
// the freshly built topology (before the network snapshots it) and `churn` is
// installed on the experiment. This is what RunScenario wraps, and what the
// session scenarios (fig18+) call directly.
WorkloadResult RunScenarioWorkload(const ScenarioConfig& cfg, const WorkloadSpec& workload);

// Converts one session's results to the legacy per-system ScenarioResult
// shape, attaching the run's network-wide shared-link peak and counters.
ScenarioResult ToScenarioResult(const SessionResult& session, const WorkloadResult& run);

// --- Fig. 4 reference lines ---

// Download time were the access link the only constraint and protocols free.
double OptimalAccessLinkSeconds(double file_mb, double access_bps);
// Best plausible time for a MACEDON/TCP system: protocol headers, TCP slow start,
// and the initial tree/RanSub startup delay before the mesh forms.
double TcpFeasibleSeconds(double file_mb, double access_bps, double startup_sec);

}  // namespace bullet

#endif  // SRC_HARNESS_SCENARIOS_H_
