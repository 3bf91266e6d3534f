// Dynamic network condition drivers (Section 4.1 of the paper).
//
// The paper's bandwidth-change scenario "models changes in the network bandwidth that
// correspond to correlated and cumulative decreases in bandwidth from a large set of
// sources from any vantage point": every 20 seconds, choose 50% of the overlay
// participants uniformly at random; for each, choose 50% of the other participants
// and halve the core-link bandwidth from those nodes toward the chosen one (the
// reverse direction is unaffected; decreases are cumulative).
//
// Topology mapping: on the mesh, "the bandwidth from s toward r" is the private
// core(s, r) link, so each decrease touches exactly one pair — the paper's
// setup, bit for bit. On a RoutedTopology the same driver halves every interior
// link of the s->r route (Topology::ScalePathBandwidth): a shared transit or
// stub-gateway link sampled via several receivers in one firing degrades once
// per sampled (s, r) pair that routes across it, so decreases are *correlated*
// across flows sharing the link and *cumulative* across firings — the
// sparse-graph reading of the paper's process. The RNG draw sequence depends
// only on (node_fraction, sender_fraction, n), never on the topology class, so
// mesh and routed runs with equal seeds sample identical (s, r) sets.

#ifndef SRC_SIM_DYNAMICS_H_
#define SRC_SIM_DYNAMICS_H_

#include <vector>

#include "src/sim/network.h"

namespace bullet {

struct BandwidthDynamicsParams {
  SimTime period = SecToSim(20.0);
  double node_fraction = 0.5;   // fraction of nodes whose inbound links degrade
  double sender_fraction = 0.5; // fraction of other nodes whose links toward it degrade
  double factor = 0.5;          // multiplicative decrease, cumulative
};

// Schedules the periodic correlated bandwidth decrease on `net`'s topology. Runs for
// the lifetime of the simulation (each firing reschedules the next).
void StartPeriodicBandwidthChanges(Network& net, const BandwidthDynamicsParams& params);

// The Section 4.5 cascading scenario (Fig. 12): every `interval`, pick the next node
// from `senders` (in order) and set the core bandwidth from it toward `target` to
// `new_bps`. Changes are permanent and cumulative across senders.
void StartCascade(Network& net, NodeId target, std::vector<NodeId> senders, SimTime interval,
                  double new_bps);

}  // namespace bullet

#endif  // SRC_SIM_DYNAMICS_H_
