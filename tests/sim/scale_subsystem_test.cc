// Conformance layer for the mega-swarm scale subsystem (ctest label `routed`):
// segment-compressed route composition must be *bitwise* identical to the
// direct per-pair Dijkstra routes on transit-stub graphs (so any scenario can
// enable compression without perturbing results), the compressed route cache
// must stay flat in the number of queried pairs while the per-pair cache
// grows, and misuse (non-transit-stub graphs, enabling after routes were
// built, composing through transit-attached nodes) must die loudly.

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

// Two builds from the same seed are identical graphs; one composes, one runs
// plain per-pair Dijkstra.
std::pair<RoutedTopology, RoutedTopology> TwinTopologies(int nodes, uint64_t seed,
                                                         bool prewarm_compressed) {
  Rng rng_a(seed);
  Rng rng_b(seed);
  RoutedTopology plain = RoutedTopology::TransitStub(MultiDomainShape(nodes), rng_a);
  RoutedTopology compressed = RoutedTopology::TransitStub(MultiDomainShape(nodes), rng_b);
  compressed.EnableSegmentCompression();
  if (prewarm_compressed) {
    compressed.PrewarmRoutes();
  }
  return {std::move(plain), std::move(compressed)};
}

void ExpectAllPairsBitwiseEqual(const RoutedTopology& plain, const RoutedTopology& compressed,
                                int nodes) {
  for (NodeId s = 0; s < nodes; ++s) {
    for (NodeId d = 0; d < nodes; ++d) {
      if (s == d) {
        continue;
      }
      const Topology::PathView reference = plain.InteriorPath(s, d);
      const std::vector<int32_t> ids(reference.begin(), reference.end());
      const Topology::PathView composed = compressed.InteriorPath(s, d);
      ASSERT_EQ(composed.size, ids.size()) << s << "->" << d;
      for (uint32_t i = 0; i < composed.size; ++i) {
        ASSERT_EQ(composed.ids[i], ids[i]) << s << "->" << d << " hop " << i;
      }
      // Derived metrics are computed from the same link lists, so they must
      // match to the last bit, not within a tolerance.
      EXPECT_EQ(plain.PathDelay(s, d), compressed.PathDelay(s, d));
      EXPECT_EQ(plain.PathLoss(s, d), compressed.PathLoss(s, d));
    }
  }
}

TEST(SegmentCompression, ComposedRoutesAreBitwiseIdenticalToDirectDijkstra) {
  auto [plain, compressed] = TwinTopologies(48, 515, /*prewarm_compressed=*/false);
  ExpectAllPairsBitwiseEqual(plain, compressed, 48);
}

TEST(SegmentCompression, PrewarmedComposedRoutesStayBitwiseIdentical) {
  // PrewarmRoutes in compressed mode warms transit trees + segments up front;
  // answers must not change.
  auto [plain, compressed] = TwinTopologies(48, 929, /*prewarm_compressed=*/true);
  ExpectAllPairsBitwiseEqual(plain, compressed, 48);
}

TEST(SegmentCompression, ComposedRoutesAreValidRouterWalks) {
  Rng rng(303);
  RoutedTopology topo = RoutedTopology::TransitStub(MultiDomainShape(36), rng);
  topo.EnableSegmentCompression();
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
  Rng rng_a(777);
  Rng rng_b(777);
  RoutedTopology plain = RoutedTopology::TransitStub(MultiDomainShape(64), rng_a);
  RoutedTopology compressed = RoutedTopology::TransitStub(MultiDomainShape(64), rng_b);
  compressed.EnableSegmentCompression();
  compressed.PrewarmRoutes();
  const size_t compressed_warm = compressed.route_cache_bytes();

  size_t plain_last = plain.route_cache_bytes();
  for (NodeId s = 0; s < 16; ++s) {
    for (NodeId d = 16; d < 64; ++d) {
      plain.InteriorPath(s, d);
      compressed.InteriorPath(s, d);
    }
    // The per-pair cache grows with every fresh source; the segment store is
    // already fully warmed and must not grow at all.
    const size_t plain_now = plain.route_cache_bytes();
    EXPECT_GT(plain_now, plain_last) << "source " << s;
    plain_last = plain_now;
    EXPECT_EQ(compressed.route_cache_bytes(), compressed_warm) << "source " << s;
  }
  EXPECT_LT(compressed_warm, plain_last);
}

// Satellite fix: route_cache_bytes must account the per-pair map entries
// (node + bucket overhead), so routing a brand-new pair strictly grows it.
TEST(SegmentCompression, RouteCacheBytesGrowWithEveryNewPair) {
  Rng rng(888);
  RoutedTopology topo = RoutedTopology::TransitStub(MultiDomainShape(48), rng);
  size_t last = topo.route_cache_bytes();
  // Nodes land on distinct routers round-robin in this shape, so successive
  // destinations are genuinely new (router-pair) routes.
  for (NodeId d = 12; d < 24; ++d) {
    topo.InteriorPath(0, d);
    const size_t now = topo.route_cache_bytes();
    EXPECT_GT(now, last) << "pair 0->" << d;
    last = now;
  }
  // Re-querying cached pairs allocates nothing.
  for (NodeId d = 12; d < 24; ++d) {
    topo.InteriorPath(0, d);
  }
  EXPECT_EQ(topo.route_cache_bytes(), last);
}

// --- misuse dies loudly ---

TEST(SegmentCompressionDeathTest, RequiresTransitStubBuiltTopology) {
  RoutedTopology topo(4, 4);
  EXPECT_DEATH(topo.EnableSegmentCompression(), "BULLET_CHECK");
}

TEST(SegmentCompressionDeathTest, MustBeEnabledBeforeFirstRouteQuery) {
  Rng rng(99);
  RoutedTopology topo = RoutedTopology::TransitStub(MultiDomainShape(24), rng);
  topo.InteriorPath(0, 1);  // builds the adjacency and route state
  EXPECT_DEATH(topo.EnableSegmentCompression(), "BULLET_CHECK");
}

TEST(SegmentCompressionDeathTest, RefusesNodesAttachedOutsideStubDomains) {
  Rng rng(100);
  RoutedTopology topo = RoutedTopology::TransitStub(MultiDomainShape(24), rng);
  topo.EnableSegmentCompression();
  // Re-attach node 0 to a transit router (router 0 in the TransitStub layout):
  // composition is defined for stub-attached nodes only and must die, not
  // fabricate a route.
  topo.AttachNode(0, 0);
  EXPECT_DEATH(topo.InteriorPath(0, 1), "BULLET_CHECK");
}

}  // namespace
}  // namespace bullet
