// Failure injection for resilience experiments.
//
// The paper's core argument for meshes (Section 1) is that losing one of n peers
// costs roughly 1/n of a node's bandwidth and triggers no reconnection storm,
// whereas losing an interior tree node cuts off a whole subtree. The paper's own
// experiments run without churn; the models here are the reproduction's
// extension for exercising that claim (bench_churn_resilience,
// bench_fig22_correlated_failures, tests/integration/churn_test.cc).
//
// A ChurnModel turns the assembled workload (topology + per-session trees and
// member sets) into a failure schedule, drawn deterministically from the rng
// stream the harness derives from the workload seed. WorkloadExperiment routes
// every event through its departure path: Network::FailNode plus the owning
// session's completion-policy credit, so churned sessions still terminate once
// their last survivor finishes.
//
// Leaf failures target leaves of the control tree: Bullet' repairs its *mesh*
// around failures (RanSub stops advertising dead peers once their summaries age
// out, and ManageSenders replaces them), but control-tree repair is out of scope
// here as it was in the paper, so killing interior tree nodes would conflate the
// two effects.

#ifndef SRC_HARNESS_CHURN_H_
#define SRC_HARNESS_CHURN_H_

#include <vector>

#include "src/common/rng.h"
#include "src/overlay/control_tree.h"
#include "src/sim/time.h"
#include "src/sim/topology.h"

namespace bullet {

struct ChurnEvent {
  NodeId node = -1;
  SimTime at = 0;  // absolute simulation time
};

// Read-only view of the workload a churn model schedules over.
struct ChurnContext {
  struct SessionView {
    const ControlTree* tree = nullptr;
    NodeId source = -1;
    const std::vector<NodeId>* members = nullptr;  // normalized member list
  };
  const Topology* topology = nullptr;
  std::vector<SessionView> sessions;
};

class ChurnModel {
 public:
  virtual ~ChurnModel() = default;
  // The failure schedule. Implementations must never target a session source.
  virtual std::vector<ChurnEvent> Schedule(const ChurnContext& ctx, Rng& rng) const = 0;
};

// Per session (in order), up to `count` of its member leaves of the control
// tree (never the source) die, drawn uniformly at random, one every
// `interval` starting at `first_kill` (the kill clock is shared across
// sessions).
class LeafFailureChurn final : public ChurnModel {
 public:
  explicit LeafFailureChurn(int count, SimTime first_kill = SecToSim(15.0),
                           SimTime interval = SecToSim(10.0));
  std::vector<ChurnEvent> Schedule(const ChurnContext& ctx, Rng& rng) const override;

 private:
  int count_;
  SimTime first_kill_;
  SimTime interval_;
};

// Topology-correlated outage over a transit-stub RoutedTopology: at `at`, every
// session member attached under one stub domain (kStubDomain) — or under every
// stub domain of one transit router (kGatewayRouter) — fails at once. The
// victim domain is chosen uniformly among domains that contain at least one
// member and no session source. Requires a TransitStub-built topology.
class CorrelatedFailureChurn final : public ChurnModel {
 public:
  enum class Scope { kStubDomain, kGatewayRouter };
  CorrelatedFailureChurn(Scope scope, SimTime at);
  std::vector<ChurnEvent> Schedule(const ChurnContext& ctx, Rng& rng) const override;

 private:
  Scope scope_;
  SimTime at_;
};

}  // namespace bullet

#endif  // SRC_HARNESS_CHURN_H_
