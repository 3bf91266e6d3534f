// Conformance layer for the mega-swarm scale subsystem (ctest label `routed`):
// the composed routes every TransitStub-built topology serves must be
// *bitwise* identical to the source-router tree walks of the same graph built
// as an explicit edge list, on generated shapes; route state must grow once
// per newly walked source tree, never per pair, and stay flat after
// PrewarmRoutes; and composing through transit-attached nodes must die loudly.

#include <gtest/gtest.h>

#include <vector>

#include "src/common/rng.h"
#include "src/sim/topology.h"

namespace bullet {
namespace {

RoutedTopology::TransitStubParams MultiDomainShape(int nodes) {
  RoutedTopology::TransitStubParams p;
  p.num_nodes = nodes;
  p.transit_domains = 2;
  p.routers_per_transit = 3;
  p.stub_domains_per_transit_router = 2;
  p.routers_per_stub = 3;
  return p;
}

// The same graph as an explicit edge list (same access links, edges in id
// order, same attachments): a plain RoutedTopology, which walks each source
// router's own Dijkstra tree instead of composing.
RoutedTopology PerPairCopy(const RoutedTopology& composed) {
  RoutedTopology plain(composed.num_nodes(), composed.num_routers());
  for (int32_t e = 0; e < static_cast<int32_t>(composed.num_edges()); ++e) {
    plain.AddEdge(composed.edge_from(e), composed.edge_to(e), composed.interior_link(e));
  }
  for (NodeId n = 0; n < composed.num_nodes(); ++n) {
    plain.uplink(n) = composed.uplink(n);
    plain.downlink(n) = composed.downlink(n);
    plain.AttachNode(n, composed.attach(n));
  }
  return plain;
}

// A random transit-stub shape: every tier's size varies (including the
// 1-router "ring" and the 2-router duplex pair), some draws use one transit
// delay for every link so that Dijkstra ties abound, and loss is on or off.
RoutedTopology::TransitStubParams DrawShape(Rng& rng) {
  RoutedTopology::TransitStubParams p;
  p.num_nodes = static_cast<int>(rng.UniformInt(2, 40));
  p.transit_domains = static_cast<int>(rng.UniformInt(1, 3));
  p.routers_per_transit = static_cast<int>(rng.UniformInt(1, 5));
  p.stub_domains_per_transit_router = static_cast<int>(rng.UniformInt(1, 3));
  p.routers_per_stub = static_cast<int>(rng.UniformInt(1, 4));
  if (rng.Bernoulli(0.3)) {
    p.transit_delay_min = p.transit_delay_max = MsToSim(10);
  }
  if (rng.Bernoulli(0.5)) {
    p.transit_loss_min = 0.001;
    p.transit_loss_max = 0.03;
  }
  return p;
}

void ExpectAllPairsBitwiseEqual(const RoutedTopology& plain, const RoutedTopology& composed) {
  const int nodes = composed.num_nodes();
  for (NodeId s = 0; s < nodes; ++s) {
    for (NodeId d = 0; d < nodes; ++d) {
      if (s == d) {
        continue;
      }
      const Topology::PathView reference = plain.InteriorPath(s, d);
      const std::vector<int32_t> ids(reference.begin(), reference.end());
      const Topology::PathView path = composed.InteriorPath(s, d);
      ASSERT_EQ(path.size, ids.size()) << s << "->" << d;
      for (uint32_t i = 0; i < path.size; ++i) {
        ASSERT_EQ(path.ids[i], ids[i]) << s << "->" << d << " hop " << i;
      }
      // Derived metrics are computed from the same link lists, so they must
      // match to the last bit, not within a tolerance.
      ASSERT_EQ(plain.PathDelay(s, d), composed.PathDelay(s, d)) << s << "->" << d;
      ASSERT_EQ(plain.PathLoss(s, d), composed.PathLoss(s, d)) << s << "->" << d;
    }
  }
}

// Draws `shapes` generated graphs and checks every ordered node pair of each.
void CheckGeneratedShapes(uint64_t seed, int shapes, bool prewarm) {
  Rng draw(seed);
  for (int i = 0; i < shapes; ++i) {
    const RoutedTopology::TransitStubParams shape = DrawShape(draw);
    Rng build_rng(seed + static_cast<uint64_t>(i));
    const RoutedTopology composed = RoutedTopology::TransitStub(shape, build_rng);
    const RoutedTopology plain = PerPairCopy(composed);
    if (prewarm) {
      composed.PrewarmRoutes();
    }
    SCOPED_TRACE(::testing::Message()
                 << "shape " << i << ": nodes " << shape.num_nodes << ", domains "
                 << shape.transit_domains << "x" << shape.routers_per_transit << ", stubs "
                 << shape.stub_domains_per_transit_router << "x" << shape.routers_per_stub
                 << ", delay " << shape.transit_delay_min << "-" << shape.transit_delay_max
                 << ", loss max " << shape.transit_loss_max);
    ExpectAllPairsBitwiseEqual(plain, composed);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

TEST(SegmentCompression, ComposedRoutesAreBitwiseIdenticalToDirectDijkstra) {
  CheckGeneratedShapes(515, 200, /*prewarm=*/false);
}

TEST(SegmentCompression, PrewarmedComposedRoutesStayBitwiseIdentical) {
  // PrewarmRoutes computes the transit trees up front; answers must not
  // change.
  CheckGeneratedShapes(929, 200, /*prewarm=*/true);
}

TEST(SegmentCompression, ComposedRoutesAreValidRouterWalks) {
  Rng rng(303);
  const RoutedTopology topo = RoutedTopology::TransitStub(MultiDomainShape(36), rng);
  for (NodeId s = 0; s < 36; ++s) {
    for (NodeId d = 0; d < 36; ++d) {
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
    }
  }
}

// --- memory scaling: the point of the subsystem ---

TEST(SegmentCompression, CompressedCacheStaysFlatWhilePerPairCacheGrows) {
  Rng rng(777);
  const RoutedTopology compressed = RoutedTopology::TransitStub(MultiDomainShape(64), rng);
  const RoutedTopology plain = PerPairCopy(compressed);
  compressed.PrewarmRoutes();
  const size_t compressed_warm = compressed.route_cache_bytes();

  size_t plain_last = plain.route_cache_bytes();
  for (NodeId s = 0; s < 16; ++s) {
    // Nodes 0-35 sit on distinct routers in this shape, so every source's
    // first pair (to node 16) walks a tree no earlier source walked. The
    // explicit graph computes it then and adds nothing for the rest; the
    // composed graph's transit trees are already warm and must not grow.
    for (NodeId d = 16; d < 64; ++d) {
      plain.InteriorPath(s, d);
      compressed.InteriorPath(s, d);
      const size_t plain_now = plain.route_cache_bytes();
      if (d == 16) {
        EXPECT_GT(plain_now, plain_last) << "source " << s;
      } else {
        EXPECT_EQ(plain_now, plain_last) << s << "->" << d;
      }
      plain_last = plain_now;
      EXPECT_EQ(compressed.route_cache_bytes(), compressed_warm) << s << "->" << d;
    }
  }
  EXPECT_LT(compressed_warm, plain_last);
}

// route_cache_bytes counts the adjacency, the route scratch and every
// computed tree, so on an explicit graph it grows when a route first walks a
// source router's tree, never per pair, and not at all after PrewarmRoutes.
TEST(SegmentCompression, RouteCacheBytesGrowOncePerSourceTree) {
  Rng rng(888);
  const RoutedTopology shape = RoutedTopology::TransitStub(MultiDomainShape(48), rng);
  const RoutedTopology topo = PerPairCopy(shape);
  const size_t cold = topo.route_cache_bytes();
  topo.InteriorPath(0, 12);
  const size_t one_tree = topo.route_cache_bytes();
  EXPECT_GT(one_tree, cold);
  // Nodes 0-35 land on distinct routers round-robin in this shape, so these
  // are genuinely new router pairs, all walking router attach(0)'s tree.
  for (NodeId d = 13; d < 24; ++d) {
    topo.InteriorPath(0, d);
    EXPECT_EQ(topo.route_cache_bytes(), one_tree) << "pair 0->" << d;
  }
  // Every fresh source router adds its tree once.
  size_t last = one_tree;
  for (NodeId s = 1; s < 12; ++s) {
    topo.InteriorPath(s, 12);
    const size_t now = topo.route_cache_bytes();
    EXPECT_GT(now, last) << "source " << s;
    last = now;
    topo.InteriorPath(s, 23);
    EXPECT_EQ(topo.route_cache_bytes(), last) << "pair " << s << "->23";
  }

  const RoutedTopology warm = PerPairCopy(shape);
  warm.PrewarmRoutes();
  const size_t warmed = warm.route_cache_bytes();
  for (NodeId s = 0; s < 48; ++s) {
    for (NodeId d = 0; d < 48; ++d) {
      if (s != d) {
        warm.InteriorPath(s, d);
      }
    }
  }
  EXPECT_EQ(warm.route_cache_bytes(), warmed);
}

// --- misuse dies loudly ---

TEST(SegmentCompressionDeathTest, RefusesNodesAttachedOutsideStubDomains) {
  Rng rng(100);
  RoutedTopology topo = RoutedTopology::TransitStub(MultiDomainShape(24), rng);
  // Re-attach node 0 to a transit router (router 0 in the TransitStub layout):
  // composition is defined for stub-attached nodes only and must die, not
  // fabricate a route.
  topo.AttachNode(0, 0);
  EXPECT_DEATH(topo.InteriorPath(0, 1), "BULLET_CHECK");
}

}  // namespace
}  // namespace bullet
