// Invariants of the aggregated (bundle-level) allocator, ctest label
// `invariants`: conservation — each bundle's member rates sum back to the
// bundle rate; feasibility — no access or interior link is oversubscribed;
// determinism — identical epochs aggregate to identical bits. The aggregated
// mode is opt-in and explicitly NOT bit-identical to the exact allocator
// (see flow_aggregation.h), so these tests pin its own contract rather than
// comparing against IncrementalMaxMin::Allocate.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "src/common/rng.h"
#include "src/sim/bandwidth_allocator.h"
#include "src/sim/scale/flow_aggregation.h"

namespace bullet {
namespace {

// Epochs register the network's fixed access links first (ids
// [0, num_access)), then dense interior ids; each flow's link list is
// (uplink, downlink, interior...) like Network does it.
struct EpochBuilder {
  explicit EpochBuilder(size_t num_access) : num_access_links(num_access) {
    epoch.BeginEpoch();
  }

  void AddAccessLinks(const std::vector<double>& caps) {
    for (const double c : caps) {
      epoch.AddLink(c);
    }
  }

  int32_t AddInteriorLink(double cap) { return epoch.AddLink(cap); }

  void AddFlow(int32_t up, int32_t down, std::vector<int32_t> interior, double tcp_cap) {
    std::vector<int32_t> ids;
    ids.push_back(up);
    ids.push_back(down);
    ids.insert(ids.end(), interior.begin(), interior.end());
    epoch.AddFlowPath(ids.data(), ids.size(), tcp_cap);
    flow_paths.push_back(std::move(ids));
  }

  IncrementalMaxMin epoch;
  size_t num_access_links;
  std::vector<std::vector<int32_t>> flow_paths;
};

// Sum of each link's member rates must not exceed its capacity. The split is
// computed in double arithmetic, so allow a relative epsilon on the compare.
void ExpectFeasible(const EpochBuilder& b, const FlowAggregator& agg) {
  const auto view = b.epoch.epoch_view();
  const std::vector<double>& link_cap = *view.capacity;
  std::vector<double> load(link_cap.size(), 0.0);
  for (size_t i = 0; i < b.flow_paths.size(); ++i) {
    for (const int32_t l : b.flow_paths[i]) {
      if (l >= 0) {
        load[static_cast<size_t>(l)] += agg.rates()[i];
      }
    }
  }
  for (size_t l = 0; l < link_cap.size(); ++l) {
    EXPECT_LE(load[l], link_cap[l] * (1.0 + 1e-9))
        << (l < b.num_access_links ? "access" : "interior") << " link " << l;
  }
}

// Member rates of every bundle must sum to the bundle's water-filled rate.
void ExpectBundleConservation(const EpochBuilder& b, const FlowAggregator& agg) {
  std::vector<double> member_sum(agg.num_bundles(), 0.0);
  for (size_t i = 0; i < b.flow_paths.size(); ++i) {
    const int32_t bd = agg.bundle_of_flow(i);
    if (bd >= 0) {
      member_sum[static_cast<size_t>(bd)] += agg.rates()[i];
    }
  }
  for (size_t bd = 0; bd < agg.num_bundles(); ++bd) {
    const double rate = agg.bundle_rate(bd);
    EXPECT_NEAR(member_sum[bd], rate, 1e-9 * std::max(1.0, rate)) << "bundle " << bd;
  }
}

TEST(FlowAggregation, BundlesFlowsWithIdenticalInteriorSlices) {
  // 3 member nodes (6 access links) around one shared interior hop. Flows 0/1
  // ride the same interior slice -> one bundle; flow 2 rides a different slice.
  EpochBuilder b(6);
  b.AddAccessLinks({10e6, 10e6, 10e6, 10e6, 10e6, 10e6});
  const int32_t core_a = b.AddInteriorLink(4e6);
  const int32_t core_b = b.AddInteriorLink(50e6);
  b.AddFlow(0, 4, {core_a}, 100e6);
  b.AddFlow(1, 5, {core_a}, 100e6);
  b.AddFlow(2, 3, {core_b}, 100e6);

  FlowAggregator agg;
  agg.Allocate(b.epoch, b.num_access_links);

  EXPECT_EQ(agg.num_bundles(), 2u);
  EXPECT_EQ(agg.bundle_of_flow(0), agg.bundle_of_flow(1));
  EXPECT_NE(agg.bundle_of_flow(0), agg.bundle_of_flow(2));
  // Flows 0 and 1 share the 4 Mbps interior bottleneck: 2 Mbps each. Flow 2 is
  // limited by its private 10 Mbps access links.
  EXPECT_NEAR(agg.rates()[0], 2e6, 1.0);
  EXPECT_NEAR(agg.rates()[1], 2e6, 1.0);
  EXPECT_NEAR(agg.rates()[2], 10e6, 1.0);
  EXPECT_EQ(agg.max_interior_link_flows(), 2);
  ExpectFeasible(b, agg);
  ExpectBundleConservation(b, agg);
}

TEST(FlowAggregation, EmptyInteriorFlowGetsMemberCapDirectly) {
  // Two flows share node 0's uplink (2 busy flows -> 5 Mbps member share each);
  // neither crosses an interior link, so each is granted its member cap and
  // carries no bundle.
  EpochBuilder b(4);
  b.AddAccessLinks({10e6, 40e6, 40e6, 40e6});
  b.AddFlow(0, 3, {}, 100e6);
  b.AddFlow(0, 2, {}, 3e6);  // tcp-capped below the 5 Mbps share

  FlowAggregator agg;
  agg.Allocate(b.epoch, b.num_access_links);

  EXPECT_EQ(agg.num_bundles(), 0u);
  EXPECT_EQ(agg.bundle_of_flow(0), -1);
  EXPECT_EQ(agg.bundle_of_flow(1), -1);
  EXPECT_DOUBLE_EQ(agg.rates()[0], 5e6);
  EXPECT_DOUBLE_EQ(agg.rates()[1], 3e6);
  ExpectFeasible(b, agg);
}

TEST(FlowAggregation, SplitRespectsHeterogeneousMemberCaps) {
  // One bundle over a 9 Mbps interior link; member caps 1 / 4 / 100 Mbps. The
  // bounded split grants the 1 Mbps member its cap and water-fills the rest
  // (4 Mbps each), leaving the residue on the widest member.
  EpochBuilder b(8);
  b.AddAccessLinks({1e6, 4e6, 100e6, 100e6, 100e6, 100e6, 100e6, 100e6});
  const int32_t core = b.AddInteriorLink(9e6);
  b.AddFlow(0, 5, {core}, 1e9);
  b.AddFlow(1, 6, {core}, 1e9);
  b.AddFlow(2, 7, {core}, 1e9);

  FlowAggregator agg;
  agg.Allocate(b.epoch, b.num_access_links);

  ASSERT_EQ(agg.num_bundles(), 1u);
  EXPECT_NEAR(agg.bundle_rate(0), 9e6, 1.0);
  EXPECT_NEAR(agg.rates()[0], 1e6, 1.0);
  EXPECT_NEAR(agg.rates()[1], 4e6, 1.0);
  EXPECT_NEAR(agg.rates()[2], 4e6, 1.0);
  ExpectFeasible(b, agg);
  ExpectBundleConservation(b, agg);
}

TEST(FlowAggregation, IdenticalEpochsAllocateIdenticalBits) {
  auto build = [](EpochBuilder* b) {
    b->AddAccessLinks({10e6, 10e6, 10e6, 10e6, 20e6, 20e6});
    const int32_t c0 = b->AddInteriorLink(6e6);
    const int32_t c1 = b->AddInteriorLink(8e6);
    b->AddFlow(0, 4, {c0, c1}, 100e6);
    b->AddFlow(1, 5, {c0, c1}, 100e6);
    b->AddFlow(2, 4, {c1}, 100e6);
    b->AddFlow(3, 5, {}, 100e6);
  };
  EpochBuilder b1(6), b2(6);
  build(&b1);
  build(&b2);
  FlowAggregator agg1, agg2;
  agg1.Allocate(b1.epoch, 6);
  agg2.Allocate(b2.epoch, 6);
  ASSERT_EQ(agg1.rates().size(), agg2.rates().size());
  for (size_t i = 0; i < agg1.rates().size(); ++i) {
    EXPECT_EQ(agg1.rates()[i], agg2.rates()[i]) << "flow " << i;
  }
  EXPECT_EQ(agg1.num_bundles(), agg2.num_bundles());
}

// Randomized sweep: many shapes of epoch, always conserving and feasible.
TEST(FlowAggregation, RandomizedEpochsConserveAndStayFeasible) {
  Rng rng(0x5eed);
  for (int iter = 0; iter < 200; ++iter) {
    const int nodes = static_cast<int>(rng.UniformInt(2, 15));
    const size_t num_access = static_cast<size_t>(2 * nodes);
    const int num_interior = static_cast<int>(rng.UniformInt(1, 6));
    EpochBuilder b(num_access);
    std::vector<double> access_caps;
    for (size_t l = 0; l < num_access; ++l) {
      access_caps.push_back(1e6 * rng.UniformDouble(1.0, 41.0));
    }
    b.AddAccessLinks(access_caps);
    std::vector<int32_t> interior;
    for (int l = 0; l < num_interior; ++l) {
      interior.push_back(b.AddInteriorLink(1e6 * rng.UniformDouble(1.0, 61.0)));
    }
    const int num_flows = static_cast<int>(rng.UniformInt(1, 40));
    for (int f = 0; f < num_flows; ++f) {
      const int32_t src = static_cast<int32_t>(rng.UniformInt(0, nodes - 1));
      const int32_t dst = static_cast<int32_t>(rng.UniformInt(0, nodes - 1));
      // Interior route: a contiguous run of the interior link list (possibly
      // empty), which mimics shared segments and produces bundle collisions.
      const int len = static_cast<int>(rng.UniformInt(0, num_interior));
      const int start =
          len == 0 ? 0 : static_cast<int>(rng.UniformInt(0, num_interior - len));
      std::vector<int32_t> route(interior.begin() + start, interior.begin() + start + len);
      const double tcp = 1e6 * rng.UniformDouble(0.5, 100.5);
      b.AddFlow(src, static_cast<int32_t>(nodes) + dst, std::move(route), tcp);
    }
    FlowAggregator agg;
    agg.Allocate(b.epoch, num_access);
    ASSERT_EQ(agg.rates().size(), static_cast<size_t>(num_flows));
    for (const double r : agg.rates()) {
      EXPECT_GE(r, 0.0);
      EXPECT_TRUE(std::isfinite(r));
    }
    ExpectFeasible(b, agg);
    ExpectBundleConservation(b, agg);
  }
}

}  // namespace
}  // namespace bullet
