// Conformance layer for the routed sparse-topology subsystem (ctest label
// `routed`): route consistency and symmetry, path-metric composition along the
// returned link lists, bitwise mesh-vs-routed allocator equality when the
// sparse graph encodes the mesh, hand-computed shared-bottleneck max-min
// fixtures, variable-length allocator paths (reference vs incremental), memory
// scaling, and the bounds/overflow regression checks on the dense mesh.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/sim/bandwidth_allocator.h"
#include "src/sim/dynamics.h"
#include "src/sim/network.h"
#include "src/sim/topology.h"

namespace bullet {
namespace {

constexpr double kUnlimited = 1e12;

RoutedTopology::TransitStubParams SmallTransitStub(int nodes) {
  RoutedTopology::TransitStubParams p;
  p.num_nodes = nodes;
  p.transit_domains = 2;
  p.routers_per_transit = 3;
  p.stub_domains_per_transit_router = 2;
  p.routers_per_stub = 3;
  return p;
}

// --- route consistency ---

TEST(RoutedTopology, TransitStubRoutesAreContiguousRouterWalks) {
  Rng rng(71);
  RoutedTopology topo = RoutedTopology::TransitStub(SmallTransitStub(24), rng);
  for (NodeId s = 0; s < 24; ++s) {
    for (NodeId d = 0; d < 24; ++d) {
      if (s == d) {
        continue;
      }
      const Topology::PathView path = topo.InteriorPath(s, d);
      int32_t at = topo.attach(s);
      for (const int32_t edge : path) {
        ASSERT_EQ(topo.edge_from(edge), at) << s << "->" << d;
        at = topo.edge_to(edge);
      }
      EXPECT_EQ(at, topo.attach(d)) << s << "->" << d;
      if (topo.attach(s) == topo.attach(d)) {
        EXPECT_EQ(path.size, 0u);
      } else {
        EXPECT_GE(path.size, 1u);
      }
    }
  }
}

TEST(RoutedTopology, RepeatedQueriesReturnTheCachedRoute) {
  Rng rng(72);
  RoutedTopology topo = RoutedTopology::TransitStub(SmallTransitStub(12), rng);
  const Topology::PathView first = topo.InteriorPath(1, 9);
  const std::vector<int32_t> ids(first.begin(), first.end());
  // Walk unrelated pairs in between (each rewrites the route scratch).
  for (NodeId d = 2; d < 12; ++d) {
    topo.InteriorPath(0, d);
  }
  const Topology::PathView again = topo.InteriorPath(1, 9);
  ASSERT_EQ(again.size, ids.size());
  for (uint32_t i = 0; i < again.size; ++i) {
    EXPECT_EQ(again.ids[i], ids[i]);
  }
}

TEST(RoutedTopology, RoutesAreSymmetricWhenShortestPathsAreUnique) {
  // A 4-router chain with distinct duplex delays: every shortest path is
  // unique, so the d->s route must be the mirror of the s->d route.
  RoutedTopology topo(4, 4);
  for (NodeId n = 0; n < 4; ++n) {
    topo.uplink(n) = LinkParams{10e6, MsToSim(1), 0.0};
    topo.downlink(n) = LinkParams{10e6, MsToSim(1), 0.0};
    topo.AttachNode(n, n);
  }
  topo.AddDuplexEdge(0, 1, LinkParams{10e6, MsToSim(3), 0.0});
  topo.AddDuplexEdge(1, 2, LinkParams{10e6, MsToSim(5), 0.0});
  topo.AddDuplexEdge(2, 3, LinkParams{10e6, MsToSim(7), 0.0});
  topo.AddDuplexEdge(0, 3, LinkParams{10e6, MsToSim(50), 0.0});  // never the short way

  const Topology::PathView fwd = topo.InteriorPath(0, 3);
  const std::vector<int32_t> fwd_ids(fwd.begin(), fwd.end());
  const Topology::PathView rev = topo.InteriorPath(3, 0);
  ASSERT_EQ(fwd_ids.size(), 3u);
  ASSERT_EQ(rev.size, fwd_ids.size());
  for (uint32_t i = 0; i < rev.size; ++i) {
    const int32_t mirror = fwd_ids[fwd_ids.size() - 1 - i];
    EXPECT_EQ(topo.edge_from(rev.ids[i]), topo.edge_to(mirror));
    EXPECT_EQ(topo.edge_to(rev.ids[i]), topo.edge_from(mirror));
  }
  EXPECT_EQ(topo.Rtt(0, 3), topo.Rtt(3, 0));
}

// --- path metrics compose along the returned link list ---

TEST(RoutedTopology, PathMetricsEqualCompositionAlongReturnedRoute) {
  Rng rng(73);
  RoutedTopology::TransitStubParams params = SmallTransitStub(18);
  params.transit_loss_min = 0.001;
  params.transit_loss_max = 0.02;
  RoutedTopology topo = RoutedTopology::TransitStub(params, rng);
  for (NodeId s = 0; s < 18; s += 3) {
    for (NodeId d = 1; d < 18; d += 4) {
      if (s == d) {
        continue;
      }
      const Topology::PathView path = topo.InteriorPath(s, d);
      SimTime delay = topo.uplink(s).delay;
      double pass = 1.0;
      for (const int32_t edge : path) {
        delay += topo.interior_link(edge).delay;
        pass *= 1.0 - topo.interior_link(edge).loss_rate;
      }
      pass *= 1.0 - topo.uplink(s).loss_rate;
      pass *= 1.0 - topo.downlink(d).loss_rate;
      delay += topo.downlink(d).delay;
      EXPECT_EQ(topo.PathDelay(s, d), delay);
      EXPECT_EQ(topo.Rtt(s, d), topo.PathDelay(s, d) + topo.PathDelay(d, s));
      EXPECT_DOUBLE_EQ(topo.PathLoss(s, d), 1.0 - pass);
    }
  }
}

TEST(RoutedTopology, SameRouterPairUsesAccessLinksOnly) {
  RoutedTopology topo(3, 1);
  for (NodeId n = 0; n < 3; ++n) {
    topo.uplink(n) = LinkParams{5e6, MsToSim(2), 0.01};
    topo.downlink(n) = LinkParams{5e6, MsToSim(3), 0.0};
    topo.AttachNode(n, 0);
  }
  EXPECT_EQ(topo.InteriorPath(0, 1).size, 0u);
  EXPECT_EQ(topo.PathDelay(0, 1), MsToSim(5));
  EXPECT_DOUBLE_EQ(topo.PathLoss(0, 1), 1.0 - (1.0 - 0.01));
}

// --- mesh-vs-routed bitwise equality when the sparse graph encodes the mesh ---

struct ScriptMsg : Message {
  int id;
  explicit ScriptMsg(int i, int64_t bytes) : id(i) {
    type = 1;
    wire_bytes = bytes;
  }
};

class TimelineRecorder : public NetHandler {
 public:
  explicit TimelineRecorder(Network* net) : net_(net) {}
  void OnConnUp(ConnId conn, NodeId peer, bool initiator) override {
    Record("up", conn, peer, initiator ? 1 : 0);
  }
  void OnConnDown(ConnId conn, NodeId peer) override { Record("down", conn, peer, 0); }
  void OnMessage(ConnId conn, NodeId from, std::unique_ptr<Message> msg) override {
    Record("msg", conn, from, static_cast<ScriptMsg&>(*msg).id);
  }

  std::vector<std::string> events;

 private:
  void Record(const char* kind, ConnId conn, NodeId peer, int extra) {
    std::ostringstream os;
    os << net_->now() << " " << kind << " c" << conn << " p" << peer << " x" << extra;
    events.push_back(os.str());
  }
  Network* net_;
};

constexpr int kEncodedNodes = 5;

// Per-pair core parameters drawn once, then written into both representations.
// Fixed 10 ms core delay keeps every direct edge the unique shortest route, so
// the routed graph expresses exactly the mesh's path set.
std::vector<LinkParams> DrawCoreParams() {
  Rng rng(4099);
  std::vector<LinkParams> core(kEncodedNodes * kEncodedNodes);
  for (NodeId s = 0; s < kEncodedNodes; ++s) {
    for (NodeId d = 0; d < kEncodedNodes; ++d) {
      if (s == d) {
        continue;
      }
      core[static_cast<size_t>(s) * kEncodedNodes + d] =
          LinkParams{rng.UniformDouble(1e6, 3e6), MsToSim(10), rng.UniformDouble(0.0, 0.02)};
    }
  }
  return core;
}

std::unique_ptr<Topology> EncodedMesh(const std::vector<LinkParams>& core) {
  auto topo = std::make_unique<MeshTopology>(kEncodedNodes);
  for (NodeId n = 0; n < kEncodedNodes; ++n) {
    topo->uplink(n) = LinkParams{6e6, MsToSim(1), 0.0};
    topo->downlink(n) = LinkParams{6e6, MsToSim(1), 0.0};
  }
  for (NodeId s = 0; s < kEncodedNodes; ++s) {
    for (NodeId d = 0; d < kEncodedNodes; ++d) {
      if (s != d) {
        topo->core(s, d) = core[static_cast<size_t>(s) * kEncodedNodes + d];
      }
    }
  }
  return topo;
}

std::unique_ptr<Topology> EncodedRouted(const std::vector<LinkParams>& core) {
  auto topo = std::make_unique<RoutedTopology>(kEncodedNodes, kEncodedNodes);
  for (NodeId n = 0; n < kEncodedNodes; ++n) {
    topo->uplink(n) = LinkParams{6e6, MsToSim(1), 0.0};
    topo->downlink(n) = LinkParams{6e6, MsToSim(1), 0.0};
    topo->AttachNode(n, n);
  }
  for (NodeId s = 0; s < kEncodedNodes; ++s) {
    for (NodeId d = 0; d < kEncodedNodes; ++d) {
      if (s != d) {
        topo->AddEdge(s, d, core[static_cast<size_t>(s) * kEncodedNodes + d]);
      }
    }
  }
  return topo;
}

// A traffic script exercising allocation (several concurrent flows), the loss
// RNG stream, a close, a node failure, and the periodic correlated bandwidth
// halving. Returns every handler event of every node, in order.
std::vector<std::string> RunEncodedScript(std::unique_ptr<Topology> topo) {
  Network net(std::move(topo), NetworkConfig{}, 515151);
  std::vector<std::unique_ptr<TimelineRecorder>> handlers;
  for (NodeId n = 0; n < kEncodedNodes; ++n) {
    handlers.push_back(std::make_unique<TimelineRecorder>(&net));
    net.SetHandler(n, handlers.back().get());
  }
  BandwidthDynamicsParams dyn;
  dyn.period = SecToSim(2.0);
  StartPeriodicBandwidthChanges(net, dyn);

  const ConnId c01 = net.Connect(0, 1);
  const ConnId c02 = net.Connect(0, 2);
  const ConnId c12 = net.Connect(1, 2);
  const ConnId c34 = net.Connect(3, 4);
  int next_id = 0;
  // An event closure holds at most UniqueFunction::kInlineBytes, so the burst
  // events capture the burst's state through one reference.
  auto send_burst = [&](int burst) {
    net.Send(c01, 0, std::make_unique<ScriptMsg>(next_id++, 150 * 1024));
    net.Send(c02, 0, std::make_unique<ScriptMsg>(next_id++, 48 * 1024));
    if (burst % 2 == 0) {
      net.Send(c12, 2, std::make_unique<ScriptMsg>(next_id++, 24 * 1024));
      net.Send(c34, 3, std::make_unique<ScriptMsg>(next_id++, 384 * 1024));
    }
  };
  for (int burst = 0; burst < 5; ++burst) {
    net.queue().Schedule(SecToSim(0.2) + burst * SecToSim(1.3) + MsToSim(3),
                         [&send_burst, burst] { send_burst(burst); });
  }
  net.queue().Schedule(SecToSim(3.1) + MsToSim(1), [&] { net.Close(c12); });
  net.queue().Schedule(SecToSim(4.6) + MsToSim(7), [&] { net.FailNode(4); });
  net.Run(SecToSim(9.0));

  std::vector<std::string> all;
  for (auto& h : handlers) {
    for (auto& e : h->events) {
      all.push_back(std::move(e));
    }
  }
  return all;
}

TEST(RoutedTopology, RoutedEncodingOfMeshIsBitwiseIdentical) {
  const std::vector<LinkParams> core = DrawCoreParams();
  const std::vector<std::string> mesh_events = RunEncodedScript(EncodedMesh(core));
  const std::vector<std::string> routed_events = RunEncodedScript(EncodedRouted(core));
  ASSERT_FALSE(mesh_events.empty());
  ASSERT_EQ(mesh_events.size(), routed_events.size());
  for (size_t i = 0; i < mesh_events.size(); ++i) {
    EXPECT_EQ(mesh_events[i], routed_events[i]) << "event " << i;
  }
}

// --- hand-computed shared-bottleneck max-min fixtures ---

RoutedTopology Dumbbell(double left_uplink0_bps, double left_uplink1_bps) {
  RoutedTopology topo(4, 2);
  const double access[4] = {left_uplink0_bps, left_uplink1_bps, 100e6, 100e6};
  for (NodeId n = 0; n < 4; ++n) {
    topo.uplink(n) = LinkParams{access[n], MsToSim(1), 0.0};
    topo.downlink(n) = LinkParams{100e6, MsToSim(1), 0.0};
    topo.AttachNode(n, n < 2 ? 0 : 1);
  }
  topo.AddDuplexEdge(0, 1, LinkParams{6e6, MsToSim(5), 0.0});
  return topo;
}

TEST(RoutedTopology, SharedBottleneckSplitsMaxMinFairly) {
  Network net(Dumbbell(100e6, 100e6), NetworkConfig{}, 7);
  const ConnId c02 = net.Connect(0, 2);
  const ConnId c13 = net.Connect(1, 3);
  net.Run(SecToSim(0.5));
  net.Send(c02, 0, std::make_unique<ScriptMsg>(0, 32 * 1024 * 1024));
  net.Send(c13, 1, std::make_unique<ScriptMsg>(1, 32 * 1024 * 1024));
  net.Run(SecToSim(6.0));  // far past slow start
  // Two flows share the 6 Mbps dumbbell core: 3 Mbps each.
  EXPECT_NEAR(net.CurrentRateBps(c02, 0), 3e6, 1.0);
  EXPECT_NEAR(net.CurrentRateBps(c13, 1), 3e6, 1.0);
  EXPECT_GE(net.max_interior_link_flows(), 2);

  // The survivor takes the whole link on the quantum after the other closes.
  net.Close(c13);
  net.Run(net.now() + MsToSim(20));
  EXPECT_NEAR(net.CurrentRateBps(c02, 0), 6e6, 1.0);
}

TEST(RoutedTopology, CapLimitedFlowReleasesSharedBottleneckShare) {
  // Node 1's 1 Mbps uplink caps its flow; the other flow takes the remaining
  // 5 Mbps of the shared core link (classic max-min redistribution).
  Network net(Dumbbell(100e6, 1e6), NetworkConfig{}, 7);
  const ConnId c02 = net.Connect(0, 2);
  const ConnId c13 = net.Connect(1, 3);
  net.Run(SecToSim(0.5));
  net.Send(c02, 0, std::make_unique<ScriptMsg>(0, 32 * 1024 * 1024));
  net.Send(c13, 1, std::make_unique<ScriptMsg>(1, 8 * 1024 * 1024));
  net.Run(SecToSim(6.0));
  EXPECT_NEAR(net.CurrentRateBps(c13, 1), 1e6, 1.0);
  EXPECT_NEAR(net.CurrentRateBps(c02, 0), 5e6, 1.0);
}

TEST(RoutedTopology, SharedLinkDynamicsDegradeEveryFlowOnIt) {
  // Halving the path bandwidth of one (s, r) pair on a routed graph degrades
  // the shared dumbbell link, so the *other* pair's flow slows too — exactly
  // what the private-core mesh cannot express.
  Network net(Dumbbell(100e6, 100e6), NetworkConfig{}, 7);
  const ConnId c02 = net.Connect(0, 2);
  const ConnId c13 = net.Connect(1, 3);
  net.Run(SecToSim(0.5));
  net.Send(c02, 0, std::make_unique<ScriptMsg>(0, 32 * 1024 * 1024));
  net.Send(c13, 1, std::make_unique<ScriptMsg>(1, 32 * 1024 * 1024));
  net.Run(SecToSim(6.0));
  net.topology().ScalePathBandwidth(0, 2, 0.5);  // 6 -> 3 Mbps shared
  net.Run(net.now() + MsToSim(20));
  EXPECT_NEAR(net.CurrentRateBps(c02, 0), 1.5e6, 1.0);
  EXPECT_NEAR(net.CurrentRateBps(c13, 1), 1.5e6, 1.0);
}

// --- variable-length allocator paths ---

TEST(AllocatorPaths, HandComputedChainSharedByTwoFlows) {
  // Links: 0 (10), 1 (4), 2 (6) Mbps. Flow A crosses 0-1-2, flow B crosses 1,
  // flow C crosses 0 and 2. Max-min: link 1 splits 2/2 between A and B; C then
  // gets min(10, 6) - 2 = 4 on links 0/2.
  std::vector<PathFlowSpec> flows(3);
  flows[0].links = {0, 1, 2};
  flows[0].cap_bps = kUnlimited;
  flows[1].links = {1};
  flows[1].cap_bps = kUnlimited;
  flows[2].links = {0, 2};
  flows[2].cap_bps = kUnlimited;
  AllocateMaxMinPaths(flows, {10e6, 4e6, 6e6});
  EXPECT_NEAR(flows[0].rate_bps, 2e6, 1.0);
  EXPECT_NEAR(flows[1].rate_bps, 2e6, 1.0);
  EXPECT_NEAR(flows[2].rate_bps, 4e6, 1.0);
}

TEST(AllocatorPaths, IncrementalPathEngineMatchesReferenceBitwise) {
  Rng rng(911);
  IncrementalMaxMin inc;
  for (int instance = 0; instance < 40; ++instance) {
    const int num_links = static_cast<int>(rng.UniformInt(1, 24));
    const int num_flows = static_cast<int>(rng.UniformInt(1, 80));
    std::vector<double> capacity(static_cast<size_t>(num_links));
    inc.BeginEpoch();
    for (auto& c : capacity) {
      // Tie-heavy: quantized capacities produce equal fair shares.
      c = 1e6 * rng.UniformInt(1, 8);
      inc.AddLink(c);
    }
    std::vector<PathFlowSpec> flows;
    for (int i = 0; i < num_flows; ++i) {
      PathFlowSpec f;
      const int nlinks = static_cast<int>(rng.UniformInt(0, 6));
      for (int l = 0; l < nlinks; ++l) {
        f.links.push_back(static_cast<int32_t>(rng.UniformInt(0, num_links - 1)));
      }
      f.cap_bps = rng.Bernoulli(0.25) ? 1e6 * rng.UniformInt(1, 5) : kUnlimited;
      inc.AddFlowPath(f.links.data(), f.links.size(), f.cap_bps);
      flows.push_back(std::move(f));
    }
    inc.Allocate();
    AllocateMaxMinPaths(flows, capacity);
    for (int i = 0; i < num_flows; ++i) {
      EXPECT_EQ(inc.rate(static_cast<size_t>(i)), flows[static_cast<size_t>(i)].rate_bps)
          << "instance " << instance << " flow " << i;
    }
  }
}

// --- memory scaling ---

TEST(RoutedTopology, BuildFootprintScalesLinearlyNotQuadratically) {
  auto footprint = [](int nodes) {
    Rng rng(1234);
    RoutedTopology::TransitStubParams p = SmallTransitStub(nodes);
    // Scale the stub tier with the overlay, as the fig17 bench does.
    p.stub_domains_per_transit_router = std::max(2, nodes / 48);
    const RoutedTopology topo = RoutedTopology::TransitStub(p, rng);
    return topo.MemoryFootprintBytes();
  };
  const size_t at1000 = footprint(1000);
  const size_t at2000 = footprint(2000);
  // Doubling the overlay must not quadruple the build footprint (sub-quadratic;
  // the shape above is ~linear).
  EXPECT_LT(static_cast<double>(at2000), 3.0 * static_cast<double>(at1000));
  // And it must be nowhere near the dense mesh's N^2 core matrix.
  EXPECT_LT(static_cast<double>(at2000), 0.01 * (2000.0 * 2000.0 * sizeof(LinkParams)));
}

// The transit router whose tree the s->d route walks on a transit-stub graph,
// or -1 when the stub legs alone make the route.
int32_t WalkedTree(const RoutedTopology& topo, NodeId s, NodeId d) {
  const RoutedTopology::TransitStubInfo& ts = *topo.transit_stub_info();
  const int32_t r0 = topo.attach(s);
  const int32_t r1 = topo.attach(d);
  if (r0 == r1) {
    return -1;
  }
  const int32_t tr0 = ts.transit_router(ts.stub_domain_of_router(r0));
  const int32_t tr1 = ts.transit_router(ts.stub_domain_of_router(r1));
  return tr0 != tr1 ? tr0 : -1;
}

TEST(RoutedTopology, RouteCacheGrowsOnlyWithQueriedPairs) {
  // Route state is the adjacency and route scratch, built by the first query,
  // plus one tree per walked source router: it grows when a query walks a
  // tree no earlier query walked, and never per pair.
  Rng rng(4321);
  RoutedTopology topo = RoutedTopology::TransitStub(SmallTransitStub(64), rng);
  const size_t before = topo.route_cache_bytes();
  topo.InteriorPath(0, 1);
  size_t last = topo.route_cache_bytes();
  EXPECT_GT(last, before);
  std::set<int32_t> walked;
  if (const int32_t tree = WalkedTree(topo, 0, 1); tree >= 0) {
    walked.insert(tree);
  }
  for (NodeId s = 0; s < 8; ++s) {
    for (NodeId d = 0; d < 32; ++d) {
      if (s == d) {
        continue;
      }
      topo.InteriorPath(s, d);
      const size_t now = topo.route_cache_bytes();
      const int32_t tree = WalkedTree(topo, s, d);
      if (tree >= 0 && walked.insert(tree).second) {
        EXPECT_GT(now, last) << s << "->" << d;
      } else {
        EXPECT_EQ(now, last) << s << "->" << d;
      }
      last = now;
    }
  }
  EXPECT_GE(walked.size(), 2u);
}

// --- bounds / overflow regression checks (BULLET_CHECK) ---

TEST(TopologyBoundsDeathTest, MeshRefusesIdSpaceOverflow) {
  // 46341^2 > INT32_MAX: core ids would alias. Must die, not wrap.
  EXPECT_DEATH(MeshTopology topo(MeshTopology::kMaxNodes + 1), "BULLET_CHECK");
}

TEST(TopologyBoundsDeathTest, AccessLinkIndexIsBoundsChecked) {
  MeshTopology topo(4);
  EXPECT_DEATH(topo.uplink(-1), "BULLET_CHECK");
  EXPECT_DEATH(topo.downlink(4), "BULLET_CHECK");
  EXPECT_DEATH(topo.core(0, 7), "BULLET_CHECK");
}

TEST(TopologyBoundsDeathTest, RoutedEdgesFreezeAfterFirstRouteQuery) {
  RoutedTopology topo(2, 2);
  topo.AttachNode(0, 0);
  topo.AttachNode(1, 1);
  topo.AddDuplexEdge(0, 1, LinkParams{1e6, MsToSim(1), 0.0});
  topo.InteriorPath(0, 1);
  EXPECT_DEATH(topo.AddEdge(0, 1, LinkParams{1e6, MsToSim(1), 0.0}), "BULLET_CHECK");
}

TEST(TopologyBoundsDeathTest, RoutedRequiresConnectedAttachRouters) {
  RoutedTopology topo(2, 3);
  topo.AttachNode(0, 0);
  topo.AttachNode(1, 2);
  topo.AddDuplexEdge(0, 1, LinkParams{1e6, MsToSim(1), 0.0});  // router 2 isolated
  EXPECT_DEATH(topo.InteriorPath(0, 1), "BULLET_CHECK");
}

}  // namespace
}  // namespace bullet
