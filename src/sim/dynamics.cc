#include "src/sim/dynamics.h"

namespace bullet {

namespace {

void FireBandwidthChange(Network& net, const BandwidthDynamicsParams& params) {
  Topology& topo = net.topology();
  const int n = topo.num_nodes();
  std::vector<NodeId> all(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    all[static_cast<size_t>(i)] = i;
  }
  const auto receivers =
      net.rng().Sample(all, static_cast<size_t>(params.node_fraction * n + 0.5));
  for (const NodeId r : receivers) {
    std::vector<NodeId> others;
    others.reserve(static_cast<size_t>(n) - 1);
    for (NodeId s = 0; s < n; ++s) {
      if (s != r) {
        others.push_back(s);
      }
    }
    const auto senders =
        net.rng().Sample(others, static_cast<size_t>(params.sender_fraction * others.size() + 0.5));
    for (const NodeId s : senders) {
      // A failed node's links carry no flows and never will again (Connect() is
      // refused), so degrading them must be a no-op. The sampling above still
      // consumes the same RNG draws regardless of failures, keeping identical
      // seeds reproducible whether or not churn is active.
      if (net.IsNodeFailed(s) || net.IsNodeFailed(r)) {
        continue;
      }
      // Mesh: exactly the private core(s, r) link, as in the paper. Routed:
      // every interior link of the s->r route, so decreases aimed at different
      // receivers compound on shared links (see topology.h).
      topo.ScalePathBandwidth(s, r, params.factor);
    }
  }
}

void ScheduleNextChange(Network& net, BandwidthDynamicsParams params) {
  net.queue().ScheduleAfter(params.period, [&net, params] {
    FireBandwidthChange(net, params);
    ScheduleNextChange(net, params);
  });
}

}  // namespace

void StartPeriodicBandwidthChanges(Network& net, const BandwidthDynamicsParams& params) {
  ScheduleNextChange(net, params);
}

void StartCascade(Network& net, NodeId target, std::vector<NodeId> senders, SimTime interval,
                  double new_bps) {
  // One event per sender, scheduled up front; changes are permanent, so the effect is
  // the cumulative cascade the paper describes.
  for (size_t i = 0; i < senders.size(); ++i) {
    const NodeId s = senders[i];
    net.queue().ScheduleAfter(interval * static_cast<SimTime>(i + 1),
                              [&net, s, target, new_bps] {
                                if (net.IsNodeFailed(s) || net.IsNodeFailed(target)) {
                                  return;  // dead links: collapsing them is a no-op
                                }
                                net.topology().SetPathBandwidth(s, target, new_bps);
                              });
  }
}

}  // namespace bullet
