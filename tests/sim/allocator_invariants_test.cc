// Property-style invariant layer over the max-min allocator pair (reference
// AllocateMaxMinPaths vs hot-path IncrementalMaxMin), randomized over ~200 seeded
// instances. Locks down the contracts the network's incremental tick relies on:
//
//  1. feasibility      — no link oversubscribed, no flow above its cap;
//  2. max-min justice  — every flow is cap-limited or crosses a saturated link
//                        on which it has a maximal rate;
//  3. monotonicity     — removing a flow never decreases a survivor's rate;
//  4. bit-exactness    — IncrementalMaxMin (with its scratch reused across many
//                        epochs, including tie-heavy uniform instances) produces
//                        rates bit-identical to a fresh AllocateMaxMinPaths;
//  5. the tie rule     — links with equal shares saturate in link id order;
//  6. the carried order — IncrementalMaxMin's cap order, carried from epoch to
//                        epoch through hints, gives the reference's
//                        rates over hundreds of epochs, whatever the hints say.
//
// Run standalone with `ctest -L invariants`.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/sim/bandwidth_allocator.h"

namespace bullet {
namespace {

constexpr double kUnlimited = 1e12;

struct Instance {
  std::vector<double> capacity;
  std::vector<PathFlowSpec> flows;
};

// Uniform instances produce exact FP ties (equal capacities, equal shares) —
// the adversarial case for bit-exactness; mixed instances cover the general
// case. Flows cross 1-3 links; ~30% are cap-limited.
Instance MakeInstance(Rng& rng, bool uniform) {
  Instance inst;
  const int num_links = static_cast<int>(rng.UniformInt(1, 40));
  const int num_flows = static_cast<int>(rng.UniformInt(1, 120));
  const double uniform_cap = rng.UniformDouble(0.5e6, 20e6);
  for (int l = 0; l < num_links; ++l) {
    inst.capacity.push_back(uniform ? uniform_cap : rng.UniformDouble(0.5e6, 20e6));
  }
  for (int i = 0; i < num_flows; ++i) {
    PathFlowSpec f;
    const int nlinks = static_cast<int>(rng.UniformInt(1, 3));
    for (int l = 0; l < nlinks; ++l) {
      f.links.push_back(static_cast<int32_t>(rng.UniformInt(0, num_links - 1)));
    }
    if (rng.Bernoulli(0.3)) {
      // Duplicate cap values (uniform case) stress equal-cap tie handling.
      f.cap_bps = uniform ? uniform_cap / 4.0 : rng.UniformDouble(0.1e6, 5e6);
    } else {
      f.cap_bps = kUnlimited;
    }
    inst.flows.push_back(std::move(f));
  }
  return inst;
}

std::vector<double> ReferenceRates(const Instance& inst) {
  std::vector<PathFlowSpec> flows = inst.flows;
  AllocateMaxMinPaths(flows, inst.capacity);
  std::vector<double> rates;
  rates.reserve(flows.size());
  for (const PathFlowSpec& f : flows) {
    rates.push_back(f.rate_bps);
  }
  return rates;
}

std::vector<double> IncrementalRates(IncrementalMaxMin& alloc, const Instance& inst) {
  alloc.BeginEpoch();
  for (const double c : inst.capacity) {
    alloc.AddLink(c);
  }
  for (const PathFlowSpec& f : inst.flows) {
    alloc.AddFlowPath(f.links.data(), f.links.size(), f.cap_bps);
  }
  alloc.Allocate();
  return alloc.rates();
}

void CheckFeasibilityAndJustice(const Instance& inst, const std::vector<double>& rates) {
  const size_t num_links = inst.capacity.size();
  std::vector<double> used(num_links, 0.0);
  for (size_t i = 0; i < inst.flows.size(); ++i) {
    EXPECT_GE(rates[i], 0.0);
    EXPECT_LE(rates[i], inst.flows[i].cap_bps * (1.0 + 1e-9));
    for (const int32_t l : inst.flows[i].links) {
      used[static_cast<size_t>(l)] += rates[i];
    }
  }
  for (size_t l = 0; l < num_links; ++l) {
    EXPECT_LE(used[l], inst.capacity[l] * (1.0 + 1e-6)) << "link " << l << " oversubscribed";
  }

  // Max-min justice: a flow below its cap must cross a saturated link on which
  // no other flow holds a strictly higher rate (else its rate could be raised).
  constexpr double kTol = 1.0;  // 1 bps
  for (size_t i = 0; i < inst.flows.size(); ++i) {
    if (rates[i] >= inst.flows[i].cap_bps - kTol) {
      continue;  // cap-limited
    }
    bool justified = false;
    for (const int32_t l : inst.flows[i].links) {
      if (justified) {
        continue;
      }
      const size_t li = static_cast<size_t>(l);
      if (used[li] < inst.capacity[li] - kTol) {
        continue;  // not saturated
      }
      bool is_max = true;
      for (size_t j = 0; j < inst.flows.size(); ++j) {
        bool on_link = false;
        for (const int32_t gl : inst.flows[j].links) {
          on_link |= gl == l;
        }
        if (on_link && rates[j] > rates[i] + kTol) {
          is_max = false;
          break;
        }
      }
      justified = is_max;
    }
    EXPECT_TRUE(justified) << "flow " << i << " (rate " << rates[i]
                           << ") is neither cap-limited nor bottleneck-justified";
  }
}

class AllocatorInvariants : public ::testing::TestWithParam<int> {};

TEST_P(AllocatorInvariants, RandomizedEpochs) {
  const int seed = GetParam();
  Rng rng(static_cast<uint64_t>(seed) * 0x9e3779b97f4a7c15ULL + 1);
  const bool uniform = seed % 3 == 0;

  // One allocator across all epochs of the case: scratch reuse is part of what
  // is under test (stale state from epoch k must not leak into epoch k+1).
  IncrementalMaxMin alloc;

  Instance inst = MakeInstance(rng, uniform);
  for (int epoch = 0; epoch < 4; ++epoch) {
    const std::vector<double> reference = ReferenceRates(inst);
    const std::vector<double> incremental = IncrementalRates(alloc, inst);
    ASSERT_EQ(reference.size(), incremental.size());
    for (size_t i = 0; i < reference.size(); ++i) {
      // Bit-exact, not approximate: the network reuses cached rates across
      // quanta, which is only sound if recomputation is exactly reproducible.
      EXPECT_EQ(reference[i], incremental[i]) << "flow " << i << " epoch " << epoch;
    }
    CheckFeasibilityAndJustice(inst, reference);

    // Mutate into the next epoch: drop a flow, add a flow, or change a capacity
    // (the three kinds of change the network's dirty-tracking reacts to).
    switch (rng.UniformInt(0, 2)) {
      case 0:
        if (inst.flows.size() > 1) {
          inst.flows.erase(inst.flows.begin() +
                           static_cast<long>(rng.UniformInt(0, static_cast<int64_t>(
                                                                   inst.flows.size() - 1))));
        }
        break;
      case 1: {
        PathFlowSpec f;
        f.links.push_back(
            static_cast<int32_t>(rng.UniformInt(0, static_cast<int64_t>(inst.capacity.size()) - 1)));
        f.cap_bps = rng.Bernoulli(0.5) ? rng.UniformDouble(0.1e6, 5e6) : kUnlimited;
        inst.flows.push_back(std::move(f));
        break;
      }
      default: {
        const size_t l =
            static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(inst.capacity.size()) - 1));
        inst.capacity[l] *= rng.Bernoulli(0.5) ? 0.5 : 2.0;
        break;
      }
    }
  }
}

TEST_P(AllocatorInvariants, RemovingAFlowNeverHurtsSurvivorsLexicographically) {
  const int seed = GetParam();
  Rng rng(static_cast<uint64_t>(seed) * 7919 + 17);
  Instance inst = MakeInstance(rng, seed % 4 == 0);
  const std::vector<double> before = ReferenceRates(inst);

  // Departure monotonicity. Note the naive per-survivor claim ("no survivor's
  // rate decreases") is FALSE for multi-link max-min: with L1=10 shared by
  // {A, B} and L2=4 shared by {B, C}, rates are A=8, B=2, C=2 — removing C
  // lifts B to 4 on L2, which costs A on L1 (A drops to 6). The true theorem:
  // the old survivor allocation stays feasible after a departure, and max-min
  // lexicographically maximizes the sorted rate vector over feasible
  // allocations, so the sorted survivor rates never decrease lexicographically
  // (in particular, the worst-off survivor never gets worse).
  const size_t removed =
      static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(inst.flows.size()) - 1));
  Instance reduced = inst;
  reduced.flows.erase(reduced.flows.begin() + static_cast<long>(removed));
  const std::vector<double> after = ReferenceRates(reduced);

  std::vector<double> old_sorted;
  for (size_t i = 0; i < before.size(); ++i) {
    if (i != removed) {
      old_sorted.push_back(before[i]);
    }
  }
  std::vector<double> new_sorted = after;
  std::sort(old_sorted.begin(), old_sorted.end());
  std::sort(new_sorted.begin(), new_sorted.end());
  ASSERT_EQ(old_sorted.size(), new_sorted.size());
  constexpr double kTol = 1.0;  // 1 bps, covers FP re-association
  for (size_t k = 0; k < new_sorted.size(); ++k) {
    if (std::abs(new_sorted[k] - old_sorted[k]) <= kTol) {
      continue;  // tied at this position; compare the next one
    }
    EXPECT_GT(new_sorted[k], old_sorted[k])
        << "sorted survivor rates decreased lexicographically at position " << k;
    break;
  }
  EXPECT_GE(new_sorted.front(), old_sorted.front() - kTol) << "worst-off survivor got worse";
}

INSTANTIATE_TEST_SUITE_P(RandomizedInstances, AllocatorInvariants, ::testing::Range(0, 100));

// A flow the caller tracks across epochs: its index when it was last
// registered, which is the hint it passes next time (as the network's
// directions keep theirs).
struct NamedFlow {
  uint32_t hint = UINT32_MAX;
  PathFlowSpec spec;
};

class CarriedCapOrder : public ::testing::TestWithParam<int> {};

// One IncrementalMaxMin over 300 epochs. Between epochs most flows stay and
// some are re-capped, dropped, added, moved, or sit epochs out and come back
// with a stale hint. Caps come mostly from five values, so equal-cap runs are
// long, and on even seeds every link starts with the same capacity. Some
// hints are wrong on purpose: out of range, another flow's index, a hint two
// flows share, and hints into an epoch abandoned before Allocate(). Every
// epoch's rates must equal a fresh AllocateMaxMinPaths bit for bit.
TEST_P(CarriedCapOrder, MatchesTheReferenceEpochAfterEpoch) {
  const int seed = GetParam();
  Rng rng(static_cast<uint64_t>(seed) * 0x2545f4914f6cdd1dULL + 3);
  const bool uniform = seed % 2 == 0;

  const std::vector<double> cap_values = {0.25e6, 0.5e6, 1e6, 2e6, kUnlimited};
  auto draw_cap = [&] {
    return rng.Bernoulli(0.7) ? rng.Choice(cap_values) : rng.UniformDouble(0.1e6, 5e6);
  };
  const std::vector<double> capacity_values = {2e6, 4e6, 8e6};
  auto draw_capacity = [&] {
    return uniform ? rng.Choice(capacity_values) : rng.UniformDouble(0.5e6, 20e6);
  };
  std::vector<double> capacity(static_cast<size_t>(rng.UniformInt(2, 24)));
  for (double& c : capacity) {
    c = uniform ? 4e6 : draw_capacity();
  }

  auto make_flow = [&] {
    NamedFlow f;
    // A flow may cross no link at all; then only its cap bounds it.
    const int nlinks = rng.Bernoulli(0.05) ? 0 : static_cast<int>(rng.UniformInt(1, 3));
    for (int l = 0; l < nlinks; ++l) {
      f.spec.links.push_back(
          static_cast<int32_t>(rng.UniformInt(0, static_cast<int64_t>(capacity.size()) - 1)));
    }
    f.spec.cap_bps = draw_cap();
    return f;
  };
  auto random_pos = [&](size_t n) {
    return static_cast<long>(rng.UniformInt(0, static_cast<int64_t>(n)));
  };

  std::vector<NamedFlow> flows;  // this epoch's, in registration order
  std::vector<NamedFlow> idle;   // sitting epochs out, hints kept
  for (int i = static_cast<int>(rng.UniformInt(1, 60)); i > 0; --i) {
    flows.push_back(make_flow());
  }

  IncrementalMaxMin alloc;
  size_t prev_flows = 0;  // flows in the last registered epoch
  for (int epoch = 0; epoch < 300; ++epoch) {
    // An epoch abandoned before Allocate(), over the same flows in another
    // order and with other caps. The hints then point into it, and the next
    // epoch must not carry its order.
    if (rng.Bernoulli(0.05)) {
      alloc.BeginEpoch();
      for (const double c : capacity) {
        alloc.AddLink(c);
      }
      std::vector<uint32_t> order(flows.size());
      for (size_t k = 0; k < order.size(); ++k) {
        order[k] = static_cast<uint32_t>(k);
      }
      rng.Shuffle(order);
      for (size_t k = 0; k < order.size(); ++k) {
        NamedFlow& f = flows[order[k]];
        alloc.AddFlowPath(f.spec.links.data(), f.spec.links.size(), draw_cap(), f.hint);
        f.hint = static_cast<uint32_t>(k);
      }
      prev_flows = flows.size();
    }

    alloc.BeginEpoch();
    for (const double c : capacity) {
      alloc.AddLink(c);
    }
    std::vector<PathFlowSpec> reference;
    uint32_t last_hint = NamedFlow{}.hint;  // what the previous flow passed
    for (size_t i = 0; i < flows.size(); ++i) {
      NamedFlow& f = flows[i];
      uint32_t hint = f.hint;
      switch (rng.UniformInt(0, 19)) {
        case 0:  // out of range
          hint = rng.Bernoulli(0.5) ? static_cast<uint32_t>(prev_flows) : UINT32_MAX - 1;
          break;
        case 1:  // another flow's index
          if (prev_flows > 0) {
            hint = static_cast<uint32_t>(rng.UniformInt(0, static_cast<int64_t>(prev_flows) - 1));
          }
          break;
        case 2:  // the previous flow's hint: two flows claim one place
          hint = last_hint;
          break;
        default:
          break;
      }
      alloc.AddFlowPath(f.spec.links.data(), f.spec.links.size(), f.spec.cap_bps, hint);
      last_hint = hint;
      f.hint = static_cast<uint32_t>(i);
      reference.push_back(f.spec);
    }
    alloc.Allocate();
    prev_flows = flows.size();
    AllocateMaxMinPaths(reference, capacity);
    ASSERT_EQ(alloc.num_flows(), reference.size());
    for (size_t i = 0; i < reference.size(); ++i) {
      ASSERT_EQ(std::bit_cast<uint64_t>(reference[i].rate_bps),
                std::bit_cast<uint64_t>(alloc.rate(i)))
          << "seed " << seed << " epoch " << epoch << " flow " << i;
    }

    // Into the next epoch: flows leave, sit out or get a new cap; idle flows
    // come back anywhere, new ones arrive anywhere, and two may trade places.
    std::vector<NamedFlow> kept;
    for (NamedFlow& f : flows) {
      if (rng.Bernoulli(0.05)) {
        continue;
      }
      if (rng.Bernoulli(0.05)) {
        idle.push_back(std::move(f));
        continue;
      }
      if (rng.Bernoulli(0.1)) {
        f.spec.cap_bps = draw_cap();
      }
      kept.push_back(std::move(f));
    }
    flows = std::move(kept);
    for (size_t k = 0; k < idle.size();) {
      if (rng.Bernoulli(0.5)) {
        flows.insert(flows.begin() + random_pos(flows.size()), std::move(idle[k]));
        idle.erase(idle.begin() + static_cast<long>(k));
      } else {
        ++k;
      }
    }
    for (int added = static_cast<int>(rng.UniformInt(flows.size() < 10 ? 3 : 0, 3));
         added > 0 && flows.size() < 120; --added) {
      flows.insert(flows.begin() + random_pos(flows.size()), make_flow());
    }
    if (flows.size() > 1 && rng.Bernoulli(0.1)) {
      std::swap(flows[static_cast<size_t>(random_pos(flows.size() - 1))],
                flows[static_cast<size_t>(random_pos(flows.size() - 1))]);
    }
    if (rng.Bernoulli(0.1)) {
      capacity[static_cast<size_t>(random_pos(capacity.size() - 1))] = draw_capacity();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CarriedCapOrder, ::testing::Range(0, 20));

// The tie rule: of two links with equal fair shares, the lower id saturates
// first. Links `a` and `b` (10 Mb/s) both carry three uncapped flows, and link
// 2 (1 Gb/s) is the wide one. Flows: {a,b}, {a,2} x2, {b,2} x2. Whichever of
// a and b saturates first freezes its three flows at 10e6/3; the other then
// splits 10e6 - 10e6/3 between its two remaining flows, which rounds one bit
// lower. Both engines must give `expected` bit for bit.
void ExpectTieRates(int32_t a, int32_t b, const std::vector<double>& expected) {
  Instance inst;
  inst.capacity = {10e6, 10e6, 1e9};
  for (const auto& links : std::vector<std::vector<int32_t>>{
           {a, b}, {a, 2}, {a, 2}, {b, 2}, {b, 2}}) {
    PathFlowSpec f;
    f.links = links;
    f.cap_bps = kUnlimited;
    inst.flows.push_back(std::move(f));
  }
  IncrementalMaxMin alloc;
  const std::vector<double> reference = ReferenceRates(inst);
  const std::vector<double> incremental = IncrementalRates(alloc, inst);
  ASSERT_EQ(reference.size(), expected.size());
  ASSERT_EQ(incremental.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    const uint64_t want = std::bit_cast<uint64_t>(expected[i]);
    EXPECT_EQ(std::bit_cast<uint64_t>(reference[i]), want) << "reference, flow " << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(incremental[i]), want) << "incremental, flow " << i;
  }
}

constexpr double kFirst = 0x1.96e6aaaaaaaabp+21;   // 10e6 / 3
constexpr double kSecond = 0x1.96e6aaaaaaaaap+21;  // (10e6 - 10e6 / 3) / 2

TEST(AllocatorTieRule, LowerLinkIdSaturatesFirst) {
  ExpectTieRates(0, 1, {kFirst, kFirst, kFirst, kSecond, kSecond});
}

TEST(AllocatorTieRule, SwappingTheTiedLinkIdsMirrorsTheRates) {
  // Link 0 now carries the {b,2} flows, so they get the larger share.
  ExpectTieRates(1, 0, {kFirst, kSecond, kSecond, kFirst, kFirst});
}

}  // namespace
}  // namespace bullet
