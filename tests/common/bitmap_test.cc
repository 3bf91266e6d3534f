#include "src/common/bitmap.h"

#include <gtest/gtest.h>

namespace bullet {
namespace {

TEST(Bitmap, EmptyDefaults) {
  Bitmap b;
  EXPECT_EQ(b.size(), 0u);
  EXPECT_EQ(b.count(), 0u);
  EXPECT_TRUE(b.empty());
  EXPECT_TRUE(b.full());  // vacuously: count == size == 0
  EXPECT_FALSE(b.Test(0));
}

TEST(Bitmap, SetAndTest) {
  Bitmap b(100);
  EXPECT_TRUE(b.Set(5));
  EXPECT_TRUE(b.Test(5));
  EXPECT_FALSE(b.Set(5));  // already set
  EXPECT_EQ(b.count(), 1u);
  EXPECT_FALSE(b.Test(6));
}

TEST(Bitmap, OutOfRangeIsSafe) {
  Bitmap b(10);
  EXPECT_FALSE(b.Set(10));
  EXPECT_FALSE(b.Set(1000));
  EXPECT_FALSE(b.Test(1000));
  EXPECT_EQ(b.count(), 0u);
}

TEST(Bitmap, WordBoundaries) {
  for (const size_t size : {1u, 63u, 64u, 65u, 128u, 129u}) {
    Bitmap b(size);
    for (size_t i = 0; i < size; ++i) {
      EXPECT_TRUE(b.Set(i)) << size << ":" << i;
    }
    EXPECT_TRUE(b.full());
  }
}

TEST(Bitmap, SetBits) {
  Bitmap b(200);
  b.Set(0);
  b.Set(63);
  b.Set(64);
  b.Set(199);
  const auto bits = b.SetBits();
  EXPECT_EQ(bits, (std::vector<uint32_t>{0, 63, 64, 199}));
}

TEST(Bitmap, DiffFrom) {
  Bitmap a(100);
  Bitmap b(100);
  a.Set(1);
  a.Set(50);
  a.Set(99);
  b.Set(50);
  const auto diff = a.DiffFrom(b);
  EXPECT_EQ(diff, (std::vector<uint32_t>{1, 99}));
  EXPECT_TRUE(b.DiffFrom(a).empty());
}

TEST(Bitmap, DiffFromDifferentSizes) {
  Bitmap a(128);
  Bitmap b(64);
  a.Set(100);
  a.Set(10);
  b.Set(10);
  const auto diff = a.DiffFrom(b);
  EXPECT_EQ(diff, (std::vector<uint32_t>{100}));
}

TEST(Bitmap, ResizeResets) {
  Bitmap b(10);
  b.Set(3);
  b.Resize(20);
  EXPECT_EQ(b.count(), 0u);
  EXPECT_FALSE(b.Test(3));
  EXPECT_EQ(b.size(), 20u);
}

}  // namespace
}  // namespace bullet
