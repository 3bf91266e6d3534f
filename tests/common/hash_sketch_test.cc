#include <gtest/gtest.h>

#include <set>
#include <string>

#include "src/common/hash.h"
#include "src/common/sketch.h"

namespace bullet {
namespace {

TEST(Hash, Mix64Bijective) {
  // Distinct inputs map to distinct outputs over a small sweep (Mix64 is a
  // bijection, so collisions indicate a bug).
  std::set<uint64_t> seen;
  for (uint64_t i = 0; i < 10000; ++i) {
    seen.insert(Mix64(i));
  }
  EXPECT_EQ(seen.size(), 10000u);
}

TEST(Hash, StrongDigestDiscriminates) {
  const std::string a = "The quick brown fox jumps over the lazy dog";
  std::string b = a;
  b[10] ^= 1;
  EXPECT_TRUE(StrongDigest(a.data(), a.size()) == StrongDigest(a.data(), a.size()));
  EXPECT_FALSE(StrongDigest(a.data(), a.size()) == StrongDigest(b.data(), b.size()));
}

TEST(Hash, StrongDigestLengthSensitive) {
  const std::string a = "aaaa";
  EXPECT_FALSE(StrongDigest(a.data(), 4) == StrongDigest(a.data(), 3));
}

TEST(Sketch, EmptyHasNoBits) {
  AvailabilitySketch s;
  EXPECT_EQ(s.bits(), 0u);
}

TEST(Sketch, AddSetsBits) {
  AvailabilitySketch s;
  s.AddBlock(7);
  EXPECT_NE(s.bits(), 0u);
  const uint64_t after_one = s.bits();
  s.AddBlock(7);
  EXPECT_EQ(s.bits(), after_one);  // idempotent
}

TEST(Sketch, NovelBuckets) {
  AvailabilitySketch mine;
  AvailabilitySketch theirs;
  for (uint32_t i = 0; i < 8; ++i) {
    mine.AddBlock(i);
    theirs.AddBlock(i);
  }
  EXPECT_EQ(theirs.NovelBucketsVs(mine), 0);
  // A peer with many more blocks covers buckets we lack.
  for (uint32_t i = 8; i < 200; ++i) {
    theirs.AddBlock(i);
  }
  EXPECT_GT(theirs.NovelBucketsVs(mine), 0);
  // Novelty is asymmetric.
  EXPECT_EQ(mine.NovelBucketsVs(theirs), 0);
}

}  // namespace
}  // namespace bullet
