#include "src/sim/bandwidth_allocator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <set>
#include <utility>
#include <vector>

#include "src/common/rng.h"

namespace bullet {
namespace {

constexpr double kUnlimited = 1e12;

PathFlowSpec MakeFlow(std::vector<int32_t> links, double cap = kUnlimited) {
  PathFlowSpec f;
  f.links = std::move(links);
  f.cap_bps = cap;
  return f;
}

TEST(Allocator, SingleFlowGetsLinkCapacity) {
  std::vector<PathFlowSpec> flows = {MakeFlow({0})};
  AllocateMaxMinPaths(flows, {10e6});
  EXPECT_DOUBLE_EQ(flows[0].rate_bps, 10e6);
}

TEST(Allocator, FairShareOnSharedLink) {
  std::vector<PathFlowSpec> flows = {MakeFlow({0}), MakeFlow({0}), MakeFlow({0})};
  AllocateMaxMinPaths(flows, {9e6});
  for (const auto& f : flows) {
    EXPECT_NEAR(f.rate_bps, 3e6, 1.0);
  }
}

TEST(Allocator, CapLimitedFlowReleasesShare) {
  // Flow 0 capped at 1 Mbps; flow 1 takes the remaining 9.
  std::vector<PathFlowSpec> flows = {MakeFlow({0}, 1e6), MakeFlow({0})};
  AllocateMaxMinPaths(flows, {10e6});
  EXPECT_NEAR(flows[0].rate_bps, 1e6, 1.0);
  EXPECT_NEAR(flows[1].rate_bps, 9e6, 1.0);
}

TEST(Allocator, BottleneckElsewhereReleasesShare) {
  // Flow 0 is bottlenecked by its narrow second link; flow 1 takes the rest.
  std::vector<PathFlowSpec> flows = {MakeFlow({0, 1}), MakeFlow({0})};
  AllocateMaxMinPaths(flows, {10e6, 2e6});
  EXPECT_NEAR(flows[0].rate_bps, 2e6, 1.0);
  EXPECT_NEAR(flows[1].rate_bps, 8e6, 1.0);
}

TEST(Allocator, ClassicMaxMinExample) {
  // Three links A=10, B=4, C=6. Flow0 crosses A,B; flow1 crosses B; flow2 crosses
  // A,C. Max-min: B splits 2/2; flow2 gets min(10-2, 6) = 6.
  std::vector<PathFlowSpec> flows = {MakeFlow({0, 1}), MakeFlow({1}), MakeFlow({0, 2})};
  AllocateMaxMinPaths(flows, {10e6, 4e6, 6e6});
  EXPECT_NEAR(flows[0].rate_bps, 2e6, 1.0);
  EXPECT_NEAR(flows[1].rate_bps, 2e6, 1.0);
  EXPECT_NEAR(flows[2].rate_bps, 6e6, 1.0);
}

TEST(Allocator, NoLinksMeansCapRate) {
  std::vector<PathFlowSpec> flows = {MakeFlow({}, 5e6)};
  AllocateMaxMinPaths(flows, {});
  EXPECT_DOUBLE_EQ(flows[0].rate_bps, 5e6);
}

TEST(Allocator, ZeroCapacityLink) {
  std::vector<PathFlowSpec> flows = {MakeFlow({0})};
  AllocateMaxMinPaths(flows, {0.0});
  EXPECT_DOUBLE_EQ(flows[0].rate_bps, 0.0);
}

TEST(Allocator, EmptyFlows) {
  std::vector<PathFlowSpec> flows;
  AllocateMaxMinPaths(flows, {10e6});  // must not crash
}

// Property-based sweep: on random instances the allocation must be (a) feasible on
// every link, (b) within every flow cap, and (c) max-min optimal: every flow is
// either cap-limited or crosses at least one saturated link whose other flows all
// have rates <= its own (otherwise its rate could be raised).
class AllocatorPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(AllocatorPropertyTest, RandomInstanceInvariants) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 1);
  const int num_links = static_cast<int>(rng.UniformInt(1, 40));
  const int num_flows = static_cast<int>(rng.UniformInt(1, 120));

  std::vector<double> capacity(static_cast<size_t>(num_links));
  for (auto& c : capacity) {
    c = rng.UniformDouble(0.5e6, 20e6);
  }
  std::vector<PathFlowSpec> flows;
  for (int i = 0; i < num_flows; ++i) {
    PathFlowSpec f;
    const int nlinks = static_cast<int>(rng.UniformInt(1, 3));
    for (int l = 0; l < nlinks; ++l) {
      f.links.push_back(static_cast<int32_t>(rng.UniformInt(0, num_links - 1)));
    }
    f.cap_bps = rng.Bernoulli(0.3) ? rng.UniformDouble(0.1e6, 5e6) : kUnlimited;
    flows.push_back(std::move(f));
  }

  AllocateMaxMinPaths(flows, capacity);

  // (a) feasibility and (b) caps.
  std::vector<double> used(static_cast<size_t>(num_links), 0.0);
  for (const auto& f : flows) {
    EXPECT_GE(f.rate_bps, 0.0);
    EXPECT_LE(f.rate_bps, f.cap_bps * (1.0 + 1e-9));
    for (const int32_t l : f.links) {
      used[static_cast<size_t>(l)] += f.rate_bps;
    }
  }
  for (int l = 0; l < num_links; ++l) {
    EXPECT_LE(used[static_cast<size_t>(l)], capacity[static_cast<size_t>(l)] * (1.0 + 1e-6))
        << "link " << l;
  }

  // (c) max-min optimality.
  constexpr double kTol = 1.0;  // 1 bps
  for (const auto& f : flows) {
    if (f.rate_bps >= f.cap_bps - kTol) {
      continue;  // cap-limited
    }
    bool justified = false;
    for (size_t l = 0; l < f.links.size() && !justified; ++l) {
      const size_t li = static_cast<size_t>(f.links[l]);
      if (used[li] < capacity[li] - kTol) {
        continue;  // link not saturated
      }
      // Saturated link: check that f has a maximal rate among its flows.
      bool is_max = true;
      for (const auto& g : flows) {
        const bool on_link =
            std::find(g.links.begin(), g.links.end(), f.links[l]) != g.links.end();
        if (on_link && g.rate_bps > f.rate_bps + kTol) {
          is_max = false;
          break;
        }
      }
      justified = is_max;
    }
    EXPECT_TRUE(justified) << "flow with rate " << f.rate_bps
                           << " is neither cap-limited nor bottleneck-justified";
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, AllocatorPropertyTest, ::testing::Range(0, 25));

// LinkHeap against an ordered set of (share, link) pairs, the order both
// water-fills saturate links in. Seeded scripts over four distinct shares make
// ties the common case, so a heap that ignored the link id would surface a
// different link. Each round heapifies a random subset of links, then re-keys
// links up and down and removes the top, a middle entry and the last entry
// (in (share, link) order); the top must match after every operation, and the
// heap must drain in the set's order.
class LinkHeapDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(LinkHeapDifferentialTest, MatchesOrderedSetOnTies) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 104729 + 17);
  const double shares[] = {0.0, 0.5e6, 2.5e6, 4e6};
  auto draw_share = [&] { return shares[rng.UniformInt(0, 3)]; };
  LinkHeap heap;
  for (int round = 0; round < 6; ++round) {
    const int32_t num_links = static_cast<int32_t>(rng.UniformInt(1, 300));
    std::set<std::pair<double, int32_t>> reference;
    std::vector<double> share_of(static_cast<size_t>(num_links), -1.0);  // -1: absent
    heap.Reset(static_cast<size_t>(num_links));
    for (int32_t l = 0; l < num_links; ++l) {
      if (rng.Bernoulli(0.8)) {
        share_of[static_cast<size_t>(l)] = draw_share();
        heap.Append(l, share_of[static_cast<size_t>(l)]);
        reference.emplace(share_of[static_cast<size_t>(l)], l);
      }
    }
    heap.Heapify();
    auto expect_same_top = [&](int op) {
      ASSERT_EQ(heap.size(), reference.size()) << "round " << round << " op " << op;
      if (reference.empty()) {
        return;
      }
      EXPECT_EQ(heap.top_share(), reference.begin()->first) << "round " << round << " op " << op;
      ASSERT_EQ(heap.top_link(), reference.begin()->second) << "round " << round << " op " << op;
    };
    auto remove = [&](int32_t link) {
      heap.Remove(link);
      reference.erase({share_of[static_cast<size_t>(link)], link});
      share_of[static_cast<size_t>(link)] = -1.0;
      EXPECT_FALSE(heap.contains(link));
    };
    expect_same_top(-1);
    for (int op = 0; op < 400 && !reference.empty() && !HasFatalFailure(); ++op) {
      const int kind = static_cast<int>(rng.UniformInt(0, 5));
      if (kind <= 2) {
        // Re-key a random present link; the new share may be higher, lower or
        // equal.
        auto it = std::next(reference.begin(),
                            static_cast<long>(rng.UniformInt(
                                0, static_cast<int64_t>(reference.size()) - 1)));
        const int32_t link = it->second;
        reference.erase(it);
        share_of[static_cast<size_t>(link)] = draw_share();
        heap.Update(link, share_of[static_cast<size_t>(link)]);
        reference.emplace(share_of[static_cast<size_t>(link)], link);
        EXPECT_TRUE(heap.contains(link));
      } else if (kind == 3) {
        remove(reference.begin()->second);
      } else if (kind == 4) {
        remove(std::next(reference.begin(),
                         static_cast<long>(reference.size() / 2))->second);
      } else {
        remove(std::prev(reference.end())->second);
      }
      expect_same_top(op);
    }
    while (!reference.empty() && !HasFatalFailure()) {
      expect_same_top(-2);
      remove(reference.begin()->second);
    }
    EXPECT_TRUE(heap.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LinkHeapDifferentialTest, ::testing::Range(0, 12));

}  // namespace
}  // namespace bullet
