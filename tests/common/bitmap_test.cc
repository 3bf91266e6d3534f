#include "src/common/bitmap.h"

#include <gtest/gtest.h>

#include <type_traits>
#include <utility>
#include <vector>

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

// Up to 64 bits live in the inline word, from 65 on in a heap array.
TEST(Bitmap, InlineAndHeapSizes) {
  for (const size_t size : {0u, 1u, 64u, 65u}) {
    Bitmap b(size);
    std::vector<uint32_t> all;
    for (size_t i = 0; i < size; ++i) {
      EXPECT_TRUE(b.Set(i)) << size << ":" << i;
      all.push_back(static_cast<uint32_t>(i));
    }
    EXPECT_FALSE(b.Set(size)) << size;
    EXPECT_FALSE(b.Test(size)) << size;
    EXPECT_EQ(b.count(), size);
    EXPECT_TRUE(b.full()) << size;
    EXPECT_EQ(b.SetBits(), all) << size;
  }
}

TEST(Bitmap, ResizeAcrossTheInlineBoundary) {
  Bitmap b(10);
  b.Set(9);
  b.Resize(100);  // inline -> heap
  EXPECT_EQ(b.size(), 100u);
  EXPECT_EQ(b.count(), 0u);
  EXPECT_FALSE(b.Test(9));
  EXPECT_TRUE(b.Set(99));
  EXPECT_TRUE(b.Set(9));
  b.Resize(128);  // heap -> heap of the same word count
  EXPECT_TRUE(b.SetBits().empty());
  b.Set(127);
  b.Resize(64);  // heap -> inline
  EXPECT_EQ(b.size(), 64u);
  EXPECT_TRUE(b.SetBits().empty());
  EXPECT_FALSE(b.Test(99));
  EXPECT_TRUE(b.Set(63));
  EXPECT_EQ(b.SetBits(), (std::vector<uint32_t>{63}));
  b.Resize(0);
  EXPECT_EQ(b.size(), 0u);
  EXPECT_FALSE(b.Test(0));
}

// Move-only: a moved bitmap takes the bits, inline or heap, and leaves the
// source empty; nothing copies or reassigns one.
static_assert(!std::is_copy_constructible_v<Bitmap> && !std::is_copy_assignable_v<Bitmap> &&
              !std::is_move_assignable_v<Bitmap> && std::is_nothrow_move_constructible_v<Bitmap>);

TEST(Bitmap, Move) {
  for (const size_t size : {16u, 200u}) {
    Bitmap a(size);
    a.Set(3);
    a.Set(size - 1);
    Bitmap moved(std::move(a));
    EXPECT_EQ(moved.size(), size);
    EXPECT_EQ(moved.SetBits(), (std::vector<uint32_t>{3, static_cast<uint32_t>(size - 1)}));
    EXPECT_TRUE(moved.Set(5));  // the moved-to bitmap owns its bits
    EXPECT_EQ(a.size(), 0u);    // a moved-from bitmap is empty
    EXPECT_EQ(a.count(), 0u);
    EXPECT_FALSE(a.Test(3));
    a.Resize(size);  // and usable again
    EXPECT_TRUE(a.Set(size - 1));
    EXPECT_FALSE(moved.Set(size - 1));

    // A vector of bitmaps moves them as it grows.
    std::vector<Bitmap> grown;
    for (int i = 0; i < 9; ++i) {
      grown.emplace_back(size);
      grown.back().Set(static_cast<size_t>(i));
    }
    for (size_t i = 0; i < grown.size(); ++i) {
      EXPECT_EQ(grown[i].SetBits(), (std::vector<uint32_t>{static_cast<uint32_t>(i)})) << size;
    }
  }
}

TEST(Bitmap, DiffFromBetweenInlineAndHeap) {
  Bitmap small(40);
  Bitmap large(130);
  small.Set(2);
  small.Set(39);
  large.Set(39);
  large.Set(64);
  large.Set(129);
  EXPECT_EQ(small.DiffFrom(large), (std::vector<uint32_t>{2}));
  EXPECT_EQ(large.DiffFrom(small), (std::vector<uint32_t>{64, 129}));
  EXPECT_EQ(small.SetBits(), (std::vector<uint32_t>{2, 39}));
  EXPECT_EQ(large.SetBits(), (std::vector<uint32_t>{39, 64, 129}));
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
