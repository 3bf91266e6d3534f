// StableFlatMap must be observationally identical to the std::map peer tables
// it replaced in the protocols: same ascending-key iteration order, same
// find/erase/emplace results, iterators that survive the protocols' usage
// patterns (held-iterator erase, conns snapshots), plus stable entry addresses
// and exact live/peak byte telemetry (live entries plus index and table
// capacity) that balances to zero at teardown and does not ratchet under
// churn.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/sim/scale/stable_flat_map.h"

namespace bullet {
namespace {

using IntMap = StableFlatMap<uint64_t, int>;

// The index holds owning raw pointers: a copy would share (and double-free)
// the entries, so the map must not be copyable.
static_assert(!std::is_copy_constructible_v<IntMap> && !std::is_copy_assignable_v<IntMap>);

void ExpectSameContents(StableFlatMap<uint64_t, int>& map,
                        const std::map<uint64_t, int>& reference) {
  ASSERT_EQ(map.size(), reference.size());
  auto it = map.begin();
  for (const auto& [key, value] : reference) {
    ASSERT_NE(it, map.end());
    EXPECT_EQ(it->first, key);
    EXPECT_EQ(it->second, value);
    ++it;
  }
  EXPECT_EQ(it, map.end());
}

TEST(StableFlatMap, RandomizedOpsMatchStdMap) {
  Rng rng(4242);
  ArenaCounter counter;
  StableFlatMap<uint64_t, int> map(&counter);
  std::map<uint64_t, int> reference;
  for (int op = 0; op < 20000; ++op) {
    // Structured keys on purpose: high bits carry a tag, stressing the hash
    // mix rather than identity-friendly keys.
    const uint64_t key = (static_cast<uint64_t>(rng.UniformInt(0, 7)) << 56) |
                         static_cast<uint64_t>(rng.UniformInt(0, 400));
    const int kind = static_cast<int>(rng.UniformInt(0, 9));
    if (kind < 5) {
      const auto [it, inserted] = map.emplace(key, op);
      const auto [ref_it, ref_inserted] = reference.emplace(key, op);
      EXPECT_EQ(inserted, ref_inserted);
      EXPECT_EQ(it->first, ref_it->first);
      EXPECT_EQ(it->second, ref_it->second);
    } else if (kind < 8) {
      EXPECT_EQ(map.erase(key), reference.erase(key));
    } else {
      const auto it = map.find(key);
      const auto ref_it = reference.find(key);
      ASSERT_EQ(it == map.end(), ref_it == reference.end()) << key;
      if (ref_it != reference.end()) {
        EXPECT_EQ(it->second, ref_it->second);
        EXPECT_EQ(map.at(key), ref_it->second);
      }
      EXPECT_EQ(map.count(key), reference.count(key));
    }
    if (op % 1000 == 0) {
      ExpectSameContents(map, reference);
    }
  }
  ExpectSameContents(map, reference);
}

TEST(StableFlatMap, IterationIsAscendingByKey) {
  StableFlatMap<uint64_t, std::string> map;
  for (const uint64_t key : {9u, 2u, 14u, 5u, 0u, 7u}) {
    map.emplace(key, std::to_string(key));
  }
  std::vector<uint64_t> keys;
  for (const auto& [key, value] : map) {
    keys.push_back(key);
    EXPECT_EQ(value, std::to_string(key));
  }
  EXPECT_EQ(keys, (std::vector<uint64_t>{0, 2, 5, 7, 9, 14}));
}

TEST(StableFlatMap, HeldIteratorEraseAndReturnValue) {
  // The protocols scan for a victim, hold the iterator, then erase it
  // (DisconnectSender); erase must return the successor like std::map.
  StableFlatMap<uint64_t, int> map;
  for (uint64_t key = 0; key < 10; ++key) {
    map.emplace(key, static_cast<int>(key * key));
  }
  auto it = map.begin();
  while (it != map.end() && it->first != 4) {
    ++it;
  }
  ASSERT_NE(it, map.end());
  it = map.erase(it);
  ASSERT_NE(it, map.end());
  EXPECT_EQ(it->first, 5u);
  EXPECT_EQ(map.size(), 9u);
  EXPECT_EQ(map.count(4), 0u);
}

TEST(StableFlatMap, EntryAddressesAreStableAcrossGrowth) {
  StableFlatMap<uint64_t, int> map;
  map.emplace(1, 100);
  int* first = &map.at(1);
  for (uint64_t key = 2; key < 600; ++key) {
    map.emplace(key, static_cast<int>(key));
  }
  // Hundreds of inserts later (several index and hash-table growths), the
  // original entry has not moved.
  EXPECT_EQ(&map.at(1), first);
  EXPECT_EQ(*first, 100);
}

TEST(StableFlatMap, CounterTracksGrowthAndBalancesToZero) {
  ArenaCounter counter;
  {
    StableFlatMap<uint64_t, int> a(&counter);
    StableFlatMap<uint64_t, int> b(&counter);
    EXPECT_EQ(counter.current_bytes(), 0);
    for (uint64_t key = 0; key < 200; ++key) {
      a.emplace(key, 1);
      b.emplace(key * 3, 2);
    }
    EXPECT_GT(counter.current_bytes(), 0);
    EXPECT_GE(counter.peak_bytes(), counter.current_bytes());
    const int64_t peak = counter.peak_bytes();
    for (uint64_t key = 0; key < 200; ++key) {
      a.erase(key);
    }
    a.clear();
    EXPECT_GE(counter.peak_bytes(), peak);  // peak never decays
  }
  // Every byte the two maps charged was returned at destruction.
  EXPECT_EQ(counter.current_bytes(), 0);
  EXPECT_GT(counter.peak_bytes(), 0);
}

TEST(StableFlatMap, CounterChargesLiveEntriesPlusSideBytes) {
  // The counter holds exactly sizeof(Entry) per live entry plus the index and
  // table capacity, after every insert and every erase.
  const int64_t entry = static_cast<int64_t>(sizeof(IntMap::Entry));
  ArenaCounter counter;
  Rng rng(7);
  {
    IntMap map(&counter);
    std::vector<uint64_t> keys;
    for (int64_t n = 1; n <= 300; ++n) {
      const uint64_t key = static_cast<uint64_t>(n) * 7919;
      map.emplace(key, static_cast<int>(n));
      keys.push_back(key);
      ASSERT_EQ(counter.current_bytes(), n * entry + map.SideBytes()) << n;
    }
    EXPECT_EQ(counter.peak_bytes(), counter.current_bytes());
    rng.Shuffle(keys);
    for (size_t i = 0; i < keys.size(); ++i) {
      ASSERT_EQ(map.erase(keys[i]), 1u);
      const int64_t live = static_cast<int64_t>(keys.size() - i - 1);
      ASSERT_EQ(counter.current_bytes(), live * entry + map.SideBytes()) << i;
    }
    EXPECT_EQ(counter.current_bytes(), map.SideBytes());
    for (uint64_t key = 0; key < 40; ++key) {
      map.emplace(key, 1);
    }
    map.clear();
    EXPECT_EQ(counter.current_bytes(), map.SideBytes());
  }
  EXPECT_EQ(counter.current_bytes(), 0);
}

TEST(StableFlatMap, ChurnDoesNotRatchetMemory) {
  // Steady-state churn (the mega-swarm peer tables' life story): repeatedly
  // filling and draining the same working set must converge — tombstone
  // pressure triggers same-size rehashes, not doubling.
  ArenaCounter counter;
  StableFlatMap<uint64_t, int> map(&counter);
  Rng rng(99);
  int64_t settled = 0;
  for (int cycle = 0; cycle < 60; ++cycle) {
    for (int i = 0; i < 64; ++i) {
      map.emplace(static_cast<uint64_t>(rng.UniformInt(0, 1u << 20)), i);
    }
    while (!map.empty()) {
      map.erase(map.begin());
    }
    if (cycle == 5) {
      settled = counter.current_bytes() + map.SideBytes();
    }
  }
  EXPECT_EQ(counter.current_bytes() + map.SideBytes(), settled);
}

}  // namespace
}  // namespace bullet
