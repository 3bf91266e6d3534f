#include "src/core/request_strategy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <vector>

namespace bullet {
namespace {

// The CandidateSet pickers as they were with type-erased std::function
// predicates: the code is copied verbatim, only the comments are dropped. The
// differential tests below hold the inlined template pickers to exactly these
// picks, set sizes and RNG draws.
class ReferenceCandidateSet {
 public:
  using ValidFn = std::function<bool(uint32_t)>;
  using RarityFn = std::function<int(uint32_t)>;

  void Add(uint32_t id);
  void Readd(uint32_t id) { Add(id); }
  size_t RawSize() const { return vec_.size(); }

  std::optional<uint32_t> Pick(RequestStrategy strategy, const ValidFn& valid,
                               const RarityFn& rarity, Rng& rng);
  std::optional<uint32_t> PickWindowed(RequestStrategy strategy, const ValidFn& valid,
                                       const ValidFn& eligible, const RarityFn& rarity, Rng& rng);
  bool RunningDry(size_t threshold, const ValidFn& valid) const;

  static constexpr size_t kRaritySample = 128;

 private:
  std::optional<uint32_t> PickFirst(const ValidFn& valid);
  std::optional<uint32_t> PickRandom(const ValidFn& valid, Rng& rng);
  std::optional<uint32_t> PickRarest(const ValidFn& valid, const RarityFn& rarity, Rng& rng,
                                     bool random_tie);
  void RemoveAt(size_t index);
  void Compact(const ValidFn& valid);

  std::deque<uint32_t> fifo_;
  std::vector<uint32_t> vec_;
};

void ReferenceCandidateSet::Add(uint32_t id) {
  fifo_.push_back(id);
  vec_.push_back(id);
}

std::optional<uint32_t> ReferenceCandidateSet::Pick(RequestStrategy strategy, const ValidFn& valid,
                                                    const RarityFn& rarity, Rng& rng) {
  switch (strategy) {
    case RequestStrategy::kFirstEncountered:
      return PickFirst(valid);
    case RequestStrategy::kRandom:
      return PickRandom(valid, rng);
    case RequestStrategy::kRarest:
      return PickRarest(valid, rarity, rng, /*random_tie=*/false);
    case RequestStrategy::kRarestRandom:
      return PickRarest(valid, rarity, rng, /*random_tie=*/true);
  }
  return std::nullopt;
}

std::optional<uint32_t> ReferenceCandidateSet::PickWindowed(RequestStrategy strategy,
                                                            const ValidFn& valid,
                                                            const ValidFn& eligible,
                                                            const RarityFn& rarity, Rng& rng) {
  if (strategy == RequestStrategy::kFirstEncountered) {
    for (auto it = fifo_.begin(); it != fifo_.end();) {
      const uint32_t id = *it;
      if (!valid(id)) {
        it = fifo_.erase(it);
        continue;
      }
      if (eligible(id)) {
        fifo_.erase(it);
        return id;
      }
      ++it;
    }
    return std::nullopt;
  }

  size_t write = 0;
  size_t best_index = SIZE_MAX;
  uint32_t best_id = 0;
  int best_rarity = INT32_MAX;
  int ties = 0;
  for (size_t read = 0; read < vec_.size(); ++read) {
    const uint32_t id = vec_[read];
    if (!valid(id)) {
      continue;
    }
    vec_[write] = id;
    const size_t index = write++;
    if (!eligible(id)) {
      continue;
    }
    bool better = false;
    if (strategy == RequestStrategy::kRandom) {
      ++ties;
      better = rng.UniformInt(1, ties) == 1;
    } else {
      const int r = rarity(id);
      if (r < best_rarity) {
        better = true;
        best_rarity = r;
        ties = 1;
      } else if (r == best_rarity) {
        ++ties;
        better = strategy == RequestStrategy::kRarestRandom ? rng.UniformInt(1, ties) == 1
                                                            : id < best_id;
      }
    }
    if (better) {
      best_index = index;
      best_id = id;
    }
  }
  vec_.resize(write);
  if (best_index == SIZE_MAX) {
    return std::nullopt;
  }
  const uint32_t id = vec_[best_index];
  RemoveAt(best_index);
  return id;
}

std::optional<uint32_t> ReferenceCandidateSet::PickFirst(const ValidFn& valid) {
  while (!fifo_.empty()) {
    const uint32_t id = fifo_.front();
    fifo_.pop_front();
    if (valid(id)) {
      return id;
    }
  }
  return std::nullopt;
}

std::optional<uint32_t> ReferenceCandidateSet::PickRandom(const ValidFn& valid, Rng& rng) {
  while (!vec_.empty()) {
    const size_t i = static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(vec_.size()) - 1));
    const uint32_t id = vec_[i];
    RemoveAt(i);
    if (valid(id)) {
      return id;
    }
  }
  return std::nullopt;
}

std::optional<uint32_t> ReferenceCandidateSet::PickRarest(const ValidFn& valid,
                                                          const RarityFn& rarity, Rng& rng,
                                                          bool random_tie) {
  while (!vec_.empty()) {
    const size_t sample = std::min(vec_.size(), kRaritySample);
    int best_rarity = INT32_MAX;
    size_t best_index = SIZE_MAX;
    uint32_t best_id = 0;
    int ties = 0;
    bool found_stale = false;
    const bool exhaustive = vec_.size() <= kRaritySample;
    size_t sampled[kRaritySample];
    size_t num_sampled = 0;
    for (size_t s = 0; s < sample; ++s) {
      const size_t i =
          exhaustive
              ? s
              : static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(vec_.size()) - 1));
      bool duplicate = false;
      if (!exhaustive) {
        for (size_t k = 0; k < num_sampled; ++k) {
          if (sampled[k] == i) {
            duplicate = true;
            break;
          }
        }
        if (!duplicate) {
          sampled[num_sampled++] = i;
        }
      }
      const uint32_t id = vec_[i];
      if (!valid(id)) {
        found_stale = true;
        continue;
      }
      const int r = rarity(id);
      bool better = false;
      if (r < best_rarity) {
        better = true;
        ties = 1;
      } else if (r == best_rarity) {
        ++ties;
        if (random_tie) {
          better = rng.UniformInt(1, ties) == 1;
        } else {
          better = id < best_id;
        }
      }
      if (better && !duplicate) {
        best_rarity = r;
        best_index = i;
        best_id = id;
      }
    }
    if (best_index != SIZE_MAX) {
      const uint32_t id = vec_[best_index];
      RemoveAt(best_index);
      return id;
    }
    if (!exhaustive && found_stale) {
      Compact(valid);
      continue;
    }
    return std::nullopt;
  }
  return std::nullopt;
}

bool ReferenceCandidateSet::RunningDry(size_t threshold, const ValidFn& valid) const {
  size_t found = 0;
  for (size_t i = vec_.size(); i-- > 0;) {
    if (valid(vec_[i])) {
      ++found;
      if (found >= threshold) {
        return false;
      }
    }
  }
  return true;
}

void ReferenceCandidateSet::RemoveAt(size_t index) {
  vec_[index] = vec_.back();
  vec_.pop_back();
}

void ReferenceCandidateSet::Compact(const ValidFn& valid) {
  vec_.erase(std::remove_if(vec_.begin(), vec_.end(), [&](uint32_t id) { return !valid(id); }),
             vec_.end());
}

const CandidateSet::ValidFn kAlwaysValid = [](uint32_t) { return true; };
const CandidateSet::RarityFn kFlatRarity = [](uint32_t) { return 1; };

TEST(CandidateSet, EmptyPicksNothing) {
  CandidateSet cs;
  Rng rng(1);
  for (const auto strategy :
       {RequestStrategy::kFirstEncountered, RequestStrategy::kRandom, RequestStrategy::kRarest,
        RequestStrategy::kRarestRandom}) {
    EXPECT_FALSE(cs.Pick(strategy, kAlwaysValid, kFlatRarity, rng).has_value());
  }
}

TEST(CandidateSet, FirstEncounteredPreservesDiscoveryOrder) {
  CandidateSet cs;
  Rng rng(2);
  for (const uint32_t id : {5u, 3u, 9u, 1u}) {
    cs.Add(id);
  }
  EXPECT_EQ(cs.Pick(RequestStrategy::kFirstEncountered, kAlwaysValid, kFlatRarity, rng), 5u);
  EXPECT_EQ(cs.Pick(RequestStrategy::kFirstEncountered, kAlwaysValid, kFlatRarity, rng), 3u);
  EXPECT_EQ(cs.Pick(RequestStrategy::kFirstEncountered, kAlwaysValid, kFlatRarity, rng), 9u);
  EXPECT_EQ(cs.Pick(RequestStrategy::kFirstEncountered, kAlwaysValid, kFlatRarity, rng), 1u);
}

TEST(CandidateSet, FirstEncounteredSkipsInvalid) {
  CandidateSet cs;
  Rng rng(3);
  for (uint32_t id = 0; id < 10; ++id) {
    cs.Add(id);
  }
  const auto odd_only = [](uint32_t id) { return id % 2 == 1; };
  EXPECT_EQ(cs.Pick(RequestStrategy::kFirstEncountered, odd_only, kFlatRarity, rng), 1u);
  EXPECT_EQ(cs.Pick(RequestStrategy::kFirstEncountered, odd_only, kFlatRarity, rng), 3u);
}

TEST(CandidateSet, RandomCoversAllCandidates) {
  CandidateSet cs;
  Rng rng(4);
  std::set<uint32_t> expected;
  for (uint32_t id = 0; id < 20; ++id) {
    cs.Add(id);
    expected.insert(id);
  }
  std::set<uint32_t> picked;
  while (true) {
    const auto p = cs.Pick(RequestStrategy::kRandom, kAlwaysValid, kFlatRarity, rng);
    if (!p.has_value()) {
      break;
    }
    EXPECT_TRUE(picked.insert(*p).second) << "duplicate pick";
  }
  EXPECT_EQ(picked, expected);
}

TEST(CandidateSet, RandomIsActuallyRandom) {
  // First pick across many fresh sets should not always be the same id.
  std::map<uint32_t, int> first_pick;
  for (uint64_t seed = 0; seed < 50; ++seed) {
    CandidateSet cs;
    Rng rng(seed);
    for (uint32_t id = 0; id < 10; ++id) {
      cs.Add(id);
    }
    first_pick[*cs.Pick(RequestStrategy::kRandom, kAlwaysValid, kFlatRarity, rng)]++;
  }
  EXPECT_GT(first_pick.size(), 3u);
}

TEST(CandidateSet, RarestPicksMinimumRarity) {
  CandidateSet cs;
  Rng rng(5);
  for (uint32_t id = 0; id < 30; ++id) {
    cs.Add(id);
  }
  const auto rarity = [](uint32_t id) { return id == 17 ? 1 : 5; };
  EXPECT_EQ(cs.Pick(RequestStrategy::kRarest, kAlwaysValid, rarity, rng), 17u);
}

TEST(CandidateSet, RarestBreaksTiesDeterministically) {
  // All equal rarity: plain rarest always picks the lowest id — the deterministic
  // herd behaviour the paper calls out as a flaw.
  for (uint64_t seed = 0; seed < 10; ++seed) {
    CandidateSet cs;
    Rng rng(seed);
    for (const uint32_t id : {7u, 3u, 12u, 9u}) {
      cs.Add(id);
    }
    EXPECT_EQ(cs.Pick(RequestStrategy::kRarest, kAlwaysValid, kFlatRarity, rng), 3u);
  }
}

TEST(CandidateSet, RarestRandomBreaksTiesRandomly) {
  std::map<uint32_t, int> first_pick;
  for (uint64_t seed = 0; seed < 60; ++seed) {
    CandidateSet cs;
    Rng rng(seed);
    for (uint32_t id = 0; id < 10; ++id) {
      cs.Add(id);
    }
    first_pick[*cs.Pick(RequestStrategy::kRarestRandom, kAlwaysValid, kFlatRarity, rng)]++;
  }
  EXPECT_GT(first_pick.size(), 3u);
}

TEST(CandidateSet, RarestRandomStillPrefersRarity) {
  for (uint64_t seed = 0; seed < 20; ++seed) {
    CandidateSet cs;
    Rng rng(seed);
    for (uint32_t id = 0; id < 50; ++id) {
      cs.Add(id);
    }
    const auto rarity = [](uint32_t id) { return id == 23 || id == 31 ? 1 : 4; };
    const auto pick = cs.Pick(RequestStrategy::kRarestRandom, kAlwaysValid, rarity, rng);
    ASSERT_TRUE(pick.has_value());
    EXPECT_TRUE(*pick == 23 || *pick == 31) << *pick;
  }
}

TEST(CandidateSet, StaleEntriesEventuallyCompacted) {
  CandidateSet cs;
  Rng rng(6);
  for (uint32_t id = 0; id < 500; ++id) {
    cs.Add(id);
  }
  // Invalidate everything except one needle; the sampled strategies must find it.
  const auto only_250 = [](uint32_t id) { return id == 250; };
  const auto pick = cs.Pick(RequestStrategy::kRarestRandom, only_250, kFlatRarity, rng);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(*pick, 250u);
  EXPECT_FALSE(cs.Pick(RequestStrategy::kRarestRandom, only_250, kFlatRarity, rng).has_value());
}

TEST(CandidateSet, RunningDry) {
  CandidateSet cs;
  EXPECT_TRUE(cs.RunningDry(1, kAlwaysValid));
  for (uint32_t id = 0; id < 5; ++id) {
    cs.Add(id);
  }
  EXPECT_FALSE(cs.RunningDry(5, kAlwaysValid));
  EXPECT_TRUE(cs.RunningDry(6, kAlwaysValid));
  const auto none_valid = [](uint32_t) { return false; };
  EXPECT_TRUE(cs.RunningDry(1, none_valid));
}

TEST(CandidateSet, ReaddMakesPickableAgain) {
  CandidateSet cs;
  Rng rng(7);
  cs.Add(42);
  EXPECT_EQ(cs.Pick(RequestStrategy::kRandom, kAlwaysValid, kFlatRarity, rng), 42u);
  EXPECT_FALSE(cs.Pick(RequestStrategy::kRandom, kAlwaysValid, kFlatRarity, rng).has_value());
  cs.Readd(42);
  EXPECT_EQ(cs.Pick(RequestStrategy::kRandom, kAlwaysValid, kFlatRarity, rng), 42u);
}

TEST(CandidateSet, StaleOnlySampleCompactsAndRetries) {
  // Large set where valid entries are vanishingly rare: a sampled round can
  // draw only stale entries, which must trigger a Compact + retry on the
  // cleaned set rather than reporting nothing to request.
  CandidateSet cs;
  Rng rng(9);
  for (uint32_t id = 0; id < 20000; ++id) {
    cs.Add(id);
  }
  const auto only_19999 = [](uint32_t id) { return id == 19999; };
  for (const auto strategy : {RequestStrategy::kRarest, RequestStrategy::kRarestRandom}) {
    const auto pick = cs.Pick(strategy, only_19999, kFlatRarity, rng);
    ASSERT_TRUE(pick.has_value());
    EXPECT_EQ(*pick, 19999u);
    cs.Readd(19999);
  }
}

TEST(CandidateSet, RunningDryThresholds) {
  CandidateSet cs;
  for (uint32_t id = 0; id < 100; ++id) {
    cs.Add(id);
  }
  // Only ids >= 90 are still valid: exactly 10 candidates remain.
  const auto last_ten = [](uint32_t id) { return id >= 90; };
  EXPECT_FALSE(cs.RunningDry(1, last_ten));
  EXPECT_FALSE(cs.RunningDry(10, last_ten));
  EXPECT_TRUE(cs.RunningDry(11, last_ten));
  EXPECT_TRUE(cs.RunningDry(100, last_ten));
}

TEST(CandidateSet, WindowedFirstEncounteredRetainsIneligible) {
  // Ineligible (outside the playback window) candidates must survive the pick
  // for a later window; invalid (already held) ones must be dropped.
  CandidateSet cs;
  Rng rng(10);
  for (const uint32_t id : {4u, 1u, 7u, 2u}) {
    cs.Add(id);
  }
  const auto not_4 = [](uint32_t id) { return id != 4; };  // 4 already held
  const auto window_lo = [](uint32_t id) { return id <= 2; };
  EXPECT_EQ(cs.PickWindowed(RequestStrategy::kFirstEncountered, not_4, window_lo, kFlatRarity, rng),
            1u);
  EXPECT_EQ(cs.PickWindowed(RequestStrategy::kFirstEncountered, not_4, window_lo, kFlatRarity, rng),
            2u);
  // Nothing eligible left, but 7 stays queued for when the window advances.
  EXPECT_FALSE(cs.PickWindowed(RequestStrategy::kFirstEncountered, not_4, window_lo, kFlatRarity,
                               rng)
                   .has_value());
  const auto window_hi = [](uint32_t id) { return id >= 5; };
  EXPECT_EQ(cs.PickWindowed(RequestStrategy::kFirstEncountered, not_4, window_hi, kFlatRarity, rng),
            7u);
}

TEST(CandidateSet, WindowedRarestPicksWithinWindowOnly) {
  CandidateSet cs;
  Rng rng(11);
  for (uint32_t id = 0; id < 20; ++id) {
    cs.Add(id);
  }
  // Id 15 is globally rarest but outside the window; 3 is the rarest inside.
  const auto rarity = [](uint32_t id) { return id == 15 ? 1 : (id == 3 ? 2 : 5); };
  const auto window = [](uint32_t id) { return id < 8; };
  EXPECT_EQ(cs.PickWindowed(RequestStrategy::kRarest, kAlwaysValid, window, rarity, rng), 3u);
  // The out-of-window rare block is still there once the window reaches it.
  const auto all = [](uint32_t) { return true; };
  EXPECT_EQ(cs.PickWindowed(RequestStrategy::kRarest, kAlwaysValid, all, rarity, rng), 15u);
}

TEST(CandidateSet, WindowedRarestTieBreaksMatchBulkSemantics) {
  // kRarest: deterministic lowest-id tie-break; kRarestRandom: spread.
  const auto window = [](uint32_t id) { return id < 10; };
  for (uint64_t seed = 0; seed < 10; ++seed) {
    CandidateSet cs;
    Rng rng(seed);
    for (const uint32_t id : {9u, 2u, 6u, 14u}) {
      cs.Add(id);
    }
    EXPECT_EQ(cs.PickWindowed(RequestStrategy::kRarest, kAlwaysValid, window, kFlatRarity, rng),
              2u);
  }
  std::map<uint32_t, int> first_pick;
  for (uint64_t seed = 0; seed < 60; ++seed) {
    CandidateSet cs;
    Rng rng(seed);
    for (uint32_t id = 0; id < 10; ++id) {
      cs.Add(id);
    }
    first_pick[*cs.PickWindowed(RequestStrategy::kRarestRandom, kAlwaysValid, window, kFlatRarity,
                                rng)]++;
  }
  EXPECT_GT(first_pick.size(), 3u);
}

TEST(CandidateSet, WindowedCompactsInvalidEntries) {
  // PickWindowed drops invalid entries as it scans — observable via RunningDry
  // before any successful pick.
  CandidateSet cs;
  Rng rng(12);
  for (uint32_t id = 0; id < 50; ++id) {
    cs.Add(id);
  }
  const auto only_49 = [](uint32_t id) { return id == 49; };
  const auto nothing_eligible = [](uint32_t) { return false; };
  EXPECT_FALSE(
      cs.PickWindowed(RequestStrategy::kRarest, only_49, nothing_eligible, kFlatRarity, rng)
          .has_value());
  EXPECT_TRUE(cs.RunningDry(2, kAlwaysValid)) << "invalid entries were not compacted";
  EXPECT_FALSE(cs.RunningDry(1, kAlwaysValid)) << "the one valid entry was dropped";
  const auto all = [](uint32_t) { return true; };
  EXPECT_EQ(cs.PickWindowed(RequestStrategy::kRarest, only_49, all, kFlatRarity, rng), 49u);
}

TEST(CandidateSet, WindowedRandomCoversEligibleSet) {
  CandidateSet cs;
  Rng rng(13);
  std::set<uint32_t> expected;
  for (uint32_t id = 0; id < 16; ++id) {
    cs.Add(id);
    if (id < 8) {
      expected.insert(id);
    }
  }
  const auto window = [](uint32_t id) { return id < 8; };
  std::set<uint32_t> picked;
  while (true) {
    const auto p = cs.PickWindowed(RequestStrategy::kRandom, kAlwaysValid, window, kFlatRarity, rng);
    if (!p.has_value()) {
      break;
    }
    EXPECT_TRUE(picked.insert(*p).second) << "duplicate pick";
  }
  EXPECT_EQ(picked, expected);
}

TEST(CandidateSet, LargeSetSampledRarestFindsRareBlocks) {
  // With 10k candidates the sampled strategies still find low-rarity blocks with
  // high probability when they are not vanishingly rare.
  CandidateSet cs;
  Rng rng(8);
  for (uint32_t id = 0; id < 10000; ++id) {
    cs.Add(id);
  }
  // 5% of blocks are rare.
  const auto rarity = [](uint32_t id) { return id % 20 == 0 ? 1 : 9; };
  int rare_hits = 0;
  for (int i = 0; i < 100; ++i) {
    const auto pick = cs.Pick(RequestStrategy::kRarestRandom, kAlwaysValid, rarity, rng);
    ASSERT_TRUE(pick.has_value());
    if (*pick % 20 == 0) {
      ++rare_hits;
    }
  }
  EXPECT_GT(rare_hits, 90);
}

// ---------------------------------------------------------------------------
// Differential tests: CandidateSet (inlined predicates) vs the reference above.
// ---------------------------------------------------------------------------

constexpr RequestStrategy kStrategies[] = {RequestStrategy::kFirstEncountered,
                                           RequestStrategy::kRandom, RequestStrategy::kRarest,
                                           RequestStrategy::kRarestRandom};

// Two generators are in the same state iff their next draws agree; copies
// are compared so the draws do not advance either side.
bool SameRngState(const Rng& a, const Rng& b) {
  Rng ca = a;
  Rng cb = b;
  return ca.Next() == cb.Next() && ca.Next() == cb.Next();
}

// The predicates' inputs, mutated by the ops: which ids are invalid (held or
// requested), each id's rarity, and a sliding window over positions
// `id % positions` (ids past `positions` model an encoded id space).
struct World {
  uint32_t ids = 0;
  uint32_t positions = 0;
  std::vector<char> invalid;
  std::vector<int> rarity;
  uint32_t window_lo = 0;
  uint32_t window_len = 1;

  bool Valid(uint32_t id) const { return invalid[id] == 0; }
  bool Eligible(uint32_t id) const {
    const uint32_t pos = id % positions;
    return pos >= window_lo && pos < window_lo + window_len;
  }
};

// Runs one seeded random op sequence against both implementations, asserting
// equal picks, RawSize() and RNG state after every op. With `fixed`, every
// pick uses that strategy (as one Bullet' node does); otherwise each pick
// draws one of the four.
void RunDifferential(uint64_t seed, std::optional<RequestStrategy> fixed) {
  Rng ops(seed);
  World w;
  // Small universes give many duplicates; large ones push the rarest
  // strategies past kRaritySample into sampling and compaction.
  constexpr uint32_t kIdSpaces[] = {24, 150, 600};
  w.ids = kIdSpaces[ops.UniformInt(0, 2)];
  w.positions = ops.Bernoulli(0.5) ? w.ids : w.ids / 2 + 1;
  w.invalid.assign(w.ids, 0);
  w.rarity.resize(w.ids);
  for (int& r : w.rarity) {
    r = static_cast<int>(ops.UniformInt(0, 6));
  }
  w.window_len = static_cast<uint32_t>(ops.UniformInt(1, 64));

  CandidateSet fast;
  ReferenceCandidateSet ref;
  Rng fast_rng(seed ^ 0x9e3779b97f4a7c15ULL);
  Rng ref_rng(seed ^ 0x9e3779b97f4a7c15ULL);
  std::vector<uint32_t> picked;

  // The templated side gets plain lambdas, the way the protocols call it; the
  // reference gets std::function values.
  const auto valid = [&w](uint32_t id) { return w.Valid(id); };
  const auto eligible = [&w](uint32_t id) { return w.Eligible(id); };
  const auto rarity = [&w](uint32_t id) { return w.rarity[id]; };
  const auto valid_eligible = [&w](uint32_t id) { return w.Valid(id) && w.Eligible(id); };
  const ReferenceCandidateSet::ValidFn ref_valid = valid;
  const ReferenceCandidateSet::ValidFn ref_eligible = eligible;
  const ReferenceCandidateSet::RarityFn ref_rarity = rarity;
  const ReferenceCandidateSet::ValidFn ref_valid_eligible = valid_eligible;

  const auto strategy = [&] {
    return fixed.has_value() ? *fixed : kStrategies[ops.UniformInt(0, 3)];
  };
  const auto random_id = [&] { return static_cast<uint32_t>(ops.UniformInt(0, w.ids - 1)); };

  // Seed the set with a discovery burst, duplicates included.
  for (uint32_t i = 0; i < w.ids; ++i) {
    const uint32_t id = random_id();
    fast.Add(id);
    ref.Add(id);
  }

  for (int op = 0; op < 600; ++op) {
    SCOPED_TRACE(testing::Message() << "seed " << seed << " op " << op);
    switch (ops.UniformInt(0, 9)) {
      case 0: {  // discovery, possibly a duplicate
        const uint32_t id = random_id();
        fast.Add(id);
        ref.Add(id);
        break;
      }
      case 1: {  // a failed request re-queued; its id becomes valid again
        if (picked.empty()) {
          break;
        }
        const size_t i =
            static_cast<size_t>(ops.UniformInt(0, static_cast<int64_t>(picked.size()) - 1));
        const uint32_t id = picked[i];
        picked.erase(picked.begin() + static_cast<std::ptrdiff_t>(i));
        w.invalid[id] = 0;
        fast.Readd(id);
        ref.Readd(id);
        break;
      }
      case 2:  // validity flips either way (held elsewhere / request cancelled)
        for (int k = 0; k < 3; ++k) {
          const uint32_t id = random_id();
          w.invalid[id] ^= 1;
        }
        break;
      case 3:  // the window slides forward, or restarts
        w.window_lo = ops.Bernoulli(0.1)
                          ? 0
                          : std::min(w.positions, w.window_lo + static_cast<uint32_t>(
                                                                    ops.UniformInt(0, 4)));
        break;
      case 4:
        w.rarity[random_id()] = static_cast<int>(ops.UniformInt(0, 6));
        break;
      case 5:
      case 6: {
        const RequestStrategy s = strategy();
        const auto a = fast.Pick(s, valid, rarity, fast_rng);
        const auto b = ref.Pick(s, ref_valid, ref_rarity, ref_rng);
        ASSERT_EQ(a, b) << "Pick diverged, strategy " << static_cast<int>(s);
        if (a.has_value()) {
          w.invalid[*a] = 1;  // now requested
          picked.push_back(*a);
        }
        break;
      }
      case 7:
      case 8: {
        const RequestStrategy s = strategy();
        const auto a = fast.PickWindowed(s, valid, eligible, rarity, fast_rng);
        const auto b = ref.PickWindowed(s, ref_valid, ref_eligible, ref_rarity, ref_rng);
        ASSERT_EQ(a, b) << "PickWindowed diverged, strategy " << static_cast<int>(s);
        if (a.has_value()) {
          w.invalid[*a] = 1;
          picked.push_back(*a);
        } else if (s != RequestStrategy::kFirstEncountered) {
          // The rule IssueRequests relies on to skip its RunningDry rescan.
          for (size_t k = 0; k <= 8; ++k) {
            ASSERT_TRUE(fast.RunningDry(k, valid_eligible)) << "k=" << k;
            ASSERT_TRUE(ref.RunningDry(k, ref_valid_eligible)) << "k=" << k;
          }
        }
        break;
      }
      default: {
        const size_t k = static_cast<size_t>(ops.UniformInt(0, 8));
        ASSERT_EQ(fast.RunningDry(k, valid), ref.RunningDry(k, ref_valid));
        ASSERT_EQ(fast.RunningDry(k, valid_eligible), ref.RunningDry(k, ref_valid_eligible));
        break;
      }
    }
    ASSERT_EQ(fast.RawSize(), ref.RawSize());
    ASSERT_TRUE(SameRngState(fast_rng, ref_rng)) << "RNG draw counts diverged";
  }
}

TEST(CandidateSetDifferential, MixedStrategiesMatchReference) {
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    RunDifferential(seed, std::nullopt);
    if (HasFatalFailure()) {
      return;
    }
  }
}

TEST(CandidateSetDifferential, EachFixedStrategyMatchesReference) {
  for (const RequestStrategy s : kStrategies) {
    for (uint64_t seed = 100; seed < 125; ++seed) {
      RunDifferential(seed, s);
      if (HasFatalFailure()) {
        return;
      }
    }
  }
}

}  // namespace
}  // namespace bullet
